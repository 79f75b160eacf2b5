(* The repository benchmark. See README.md for the metrics, workloads and
   how to compare two commits.

     dune exec bench/suite/main.exe -- --workload W --seed S
       [--seconds N] [--trace 0|1] [--smoke] [--json FILE]

   Prints every metric as "name value unit" and, as the last line for
   each workload, one JSON object {correct, attempted, failed, metrics}.
   Exits 1 when a correctness check fails, 2 on bad arguments or a
   simulated-hardware calibration mismatch. *)

open Workloads

type outcome = {
  errors : string list;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  extra : (string * float * string) list;  (** printed, not in the JSON *)
}

let wall = Unix.gettimeofday

(* Host-cost repetitions of the measured points: at least [min_reps], and
   more until [budget] wall seconds have passed since [t0]. The first
   pass is left out of host costs: it runs cold (pools and heap still
   growing). *)
let repeat ~t0 ~budget ~min_reps f =
  let rec go n acc =
    if n >= min_reps && wall () -. t0 >= budget then List.rev acc
    else go (n + 1) (f () :: acc)
  in
  go 0 []

let untraced ~smoke ~seed ~t0 ~budget w =
  (* Only the pass's summaries outlive it, so the host-cost repetitions
     run on a small heap. *)
  let pass = run_pass ~seed w in
  let m = measured w pass in
  let sim = simulated w pass in
  let alloc = words_per_op m and heap = live_heap_mb m in
  let pass_errors = errors pass in
  let attempted = attempted pass and failed = failed pass in
  (* Two set-up samples after each repetition, so that they see the same
     stretches of host speed as the repetitions' reference loops. *)
  let setup_sample = setup_sampler ~seed w in
  let reps =
    repeat ~t0 ~budget ~min_reps:(if smoke then 1 else 3) (fun () ->
        let r = run_rep ~seed w in
        (r, List.init 2 (fun _ -> setup_sample ())))
  in
  let ref_ns = Host.median (List.map (fun (r, _) -> r.ref_ns) reps) in
  {
    errors =
      pass_errors @ List.concat_map (fun (r, _) -> errors r.results) reps;
    attempted;
    failed;
    metrics =
      sim
      @ [
          ( "host_cost_per_op",
            Host.median (List.map (fun (r, _) -> host_cost_per_op r) reps),
            "ref-loop-iters" );
          ("alloc_words_per_op", alloc, "words");
          ("live_heap_mb", heap, "MB");
          ("setup_s", setup_s w (List.concat_map snd reps) ~ref_ns, "s");
        ];
    extra = [];
  }

let traced ~smoke ~seed ~t0 ~budget w =
  let pass = run_pass ~seed w in
  let tpass = run_pass ~traced:true ~seed w in
  let sim = simulated w pass and tsim = simulated w tpass in
  let neutral =
    if compare sim tsim = 0 then []
    else [ "the traced pass changed the simulated end-to-end metrics" ]
  in
  let tm = measured w tpass in
  let units = Layers.drive ~smoke tm in
  (* Alternate untraced and traced repetitions for the overhead ratio. *)
  let reps =
    repeat ~t0 ~budget ~min_reps:(if smoke then 1 else 2) (fun () ->
        let u = run_rep ~seed w in
        (u, run_rep ~traced:true ~seed w))
  in
  let median f = Host.median (List.map f reps) in
  let host_ns = median (fun (u, _) -> host_ns_per_op u.results) in
  let ref_ns = median (fun (u, _) -> u.ref_ns) in
  let overhead =
    median (fun (u, t) -> host_cost_per_op t /. host_cost_per_op u) -. 1.0
  in
  {
    errors =
      neutral @ errors pass @ errors tpass
      @ List.concat_map (fun (u, t) -> errors u.results @ errors t.results) reps;
    attempted = attempted tpass;
    failed = failed tpass;
    metrics =
      Layers.metrics tm ~units ~host_ns ~ref_ns ~overhead;
    extra = List.map (fun (n, v, u) -> ("traced." ^ n, v, u)) tsim;
  }

let json_of ~correct o =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.15g, \"unit\": %S}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and smoke = ref false and json = ref "" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "W  " ^ String.concat " | " Workloads.names ^ " | all (default)" );
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  wall seconds of host-cost repetitions per run (default 10)" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1  1 runs the traced pass and prints the per-layer metrics" );
      ("--smoke", Arg.Set smoke, "  short windows (the dune runtest check)");
      ("--json", Arg.Set_string json, "FILE  also write the JSON lines here");
    ]
  in
  let usage = "main.exe --workload W --seed N [options]" in
  let bad msg =
    prerr_endline msg;
    Arg.usage spec usage;
    exit 2
  in
  Arg.parse spec (fun a -> bad ("unexpected argument " ^ a)) usage;
  let names = if !workload = "all" then Workloads.names else [ !workload ] in
  if not (List.for_all (fun n -> List.mem n Workloads.names) names) then
    bad ("unknown workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  (match Calib.check () with
  | [] -> ()
  | mismatches ->
    prerr_endline
      "the simulated hardware differs from the calibration this benchmark \
       was defined on (bench/suite/calib.ml):";
    List.iter (fun m -> prerr_endline ("  " ^ m)) mismatches;
    exit 2);
  let budget = !seconds /. float_of_int (List.length names) in
  let lines =
    List.map
      (fun name ->
        let w = Workloads.get ~smoke:!smoke name in
        let run = if !trace = 1 then traced else untraced in
        let o = run ~smoke:!smoke ~seed:!seed ~t0:(wall ()) ~budget w in
        let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) o.metrics in
        let errors =
          o.errors @ if finite then [] else [ "a metric is not a finite number" ]
        in
        Printf.printf "# %s seed=%d trace=%d\n" name !seed !trace;
        List.iter
          (fun (n, v, u) -> Printf.printf "%s %.15g %s\n" n v u)
          (o.metrics @ o.extra);
        List.iter (fun e -> Printf.printf "# check failed: %s\n" e) errors;
        let correct = errors = [] in
        let line =
          json_of ~correct
            {
              o with
              metrics =
                List.map
                  (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u))
                  o.metrics;
            }
        in
        print_endline line;
        (correct, line))
      names
  in
  if !json <> "" then begin
    let oc = open_out !json in
    List.iter (fun (_, l) -> output_string oc (l ^ "\n")) lines;
    close_out oc
  end;
  exit (if List.for_all fst lines then 0 else 1)
