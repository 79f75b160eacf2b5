(* Benchmark driver: regenerates every figure of the paper's evaluation
   (section 6). Run all with `dune exec bench/main.exe`; select figures
   with `--fig 6 --fig 17`; use `--full` for longer measurement windows;
   `--micro` adds the bechamel microbenchmarks. *)

let figures : (string * string * (unit -> unit)) list =
  [
    ("6", "append latency vs Corfu", Fig6.run);
    ("7", "append latency vs Scalog", Fig7.run);
    ("8", "reads lagging appends", Fig8.run);
    ("9", "no lag appends/reads", Fig9.run);
    ("10", "periodic reads", Fig10.run);
    ("11", "append rate vs read latency", Fig11.run);
    ("12", "record size vs Erwin-m throughput", Fig12.run);
    ("13", "Erwin-st scalability", Fig13.run);
    ("14", "Erwin-st reads", Fig14.run);
    ("15", "total order over Kafka shards", Fig15.run);
    ("16", "seamless shard addition", Fig16.run);
    ("17", "sequencing-layer reconfiguration", Fig17.run);
    ("18", "end applications", Fig18.run);
    ("batch", "append-path group commit sweep", Fig_batch.run);
    ("read", "demand-driven tail reads", Fig_read.run);
    ("open", "open-loop 100k-producer workload", Fig_open.run);
    ("stream", "subscription streaming delivery", Fig_stream.run);
    ("gray", "gray-failure resilience (hedged reads, outlier eviction)", Fig_gray.run);
    ("tenants", "multi-log fabric: tenant scaling + weighted-fair ingress", Fig_tenants.run);
  ]

let run_selection figs full micro ablations csv json_dir min_mevents
    min_domain_scaling =
  (match csv with
  | Some path -> Harness.csv_out := Some (open_out path)
  | None -> ());
  Harness.json_dir := json_dir;
  Harness.quick := not full;
  Printf.printf
    "LazyLog benchmark suite — reproducing the paper's figures (%s mode)\n"
    (if full then "full" else "quick");
  Printf.printf
    "All latencies/throughputs are simulated-cluster measurements; see EXPERIMENTS.md.\n";
  let selected =
    match figs with
    | [] -> figures
    | figs -> List.filter (fun (n, _, _) -> List.mem n figs) figures
  in
  List.iter
    (fun (n, what, f) ->
      let t0 = Unix.gettimeofday () in
      f ();
      Printf.printf "  [figure %s: %s — %.1fs wall]\n%!" n what
        (Unix.gettimeofday () -. t0))
    selected;
  if ablations then Ablation.run ();
  if micro then Micro.run ();
  (match !Harness.csv_out with
  | Some oc ->
    close_out oc;
    Harness.csv_out := None
  | None -> ());
  Printf.printf "\nDone.\n";
  (* CI regression floor: fail the run if the engine's headline event
     rate (timer-callback workload, measured by --micro) fell below the
     floor. Very conservative floors only — the measurement is
     wall-clock and shared runners are noisy. *)
  (match min_mevents with
  | Some floor when micro ->
    if !Micro.headline_mevents < floor then begin
      Printf.eprintf
        "FAIL: engine headline %.2f Mevents/s below floor %.2f\n"
        !Micro.headline_mevents floor;
      exit 1
    end
    else
      Printf.printf "engine headline %.2f Mevents/s >= floor %.2f\n"
        !Micro.headline_mevents floor
  | Some _ ->
    prerr_endline "warning: --min-mevents has no effect without --micro"
  | None -> ());
  (* Engines are domain-local and share nothing, so the multi-domain
     aggregate must scale on multi-core runners — only checked there;
     on a single core the "aggregate" is one domain plus spawn cost. *)
  match min_domain_scaling with
  | Some floor when micro ->
    if Domain.recommended_domain_count () <= 1 then
      Printf.printf
        "domain scaling %.2fx not asserted (single-core runner)\n"
        !Micro.aggregate_scaling
    else if !Micro.aggregate_scaling < floor then begin
      Printf.eprintf "FAIL: domain scaling %.2fx below floor %.2fx\n"
        !Micro.aggregate_scaling floor;
      exit 1
    end
    else
      Printf.printf "domain scaling %.2fx >= floor %.2fx\n"
        !Micro.aggregate_scaling floor
  | Some _ ->
    prerr_endline "warning: --min-domain-scaling has no effect without --micro"
  | None -> ()

open Cmdliner

let figs =
  let doc =
    "Figure to run: a paper figure number (6..18) or a named sweep \
     (batch). Repeatable; default: all."
  in
  Arg.(value & opt_all string [] & info [ "fig"; "f" ] ~docv:"N" ~doc)

let full =
  let doc = "Longer measurement windows (closer to the paper's durations)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let micro =
  let doc = "Also run the bechamel microbenchmarks." in
  Arg.(value & flag & info [ "micro" ] ~doc)

let ablations =
  let doc = "Also run the design-choice ablations (DESIGN.md section 6)." in
  Arg.(value & flag & info [ "ablations" ] ~doc)

let csv =
  let doc = "Also mirror every table row into $(docv) as CSV." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let json_dir =
  let doc =
    "Also write machine-readable BENCH_<name>.json files (throughput and \
     p50/p99 per series) into $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "json-dir" ] ~docv:"DIR" ~doc)

let min_mevents =
  let doc =
    "With --micro: exit 1 if the engine's headline rate (Mevents/s) falls \
     below $(docv). Used as a CI regression floor."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "min-mevents" ] ~docv:"FLOAT" ~doc)

let min_domain_scaling =
  let doc =
    "With --micro: exit 1 if the multi-domain aggregate Mevents/s is below \
     $(docv) times the single-domain rate. No-op on single-core runners."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "min-domain-scaling" ] ~docv:"FLOAT" ~doc)

let cmd =
  let doc = "Reproduce the LazyLog paper's evaluation figures" in
  let info = Cmd.info "lazylog-bench" ~doc in
  Cmd.v info
    Term.(
      const run_selection $ figs $ full $ micro $ ablations $ csv $ json_dir
      $ min_mevents $ min_domain_scaling)

let () = exit (Cmd.eval cmd)
