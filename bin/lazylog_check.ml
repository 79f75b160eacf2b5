(* lazylog-check: seeded exploration of the Erwin systems under schedule
   perturbation and scripted/randomized fault injection, with always-on
   invariant monitors.

     dune exec bin/lazylog_check.exe -- --systems erwin-m,erwin-st \
       --seeds 100 --shards 2

   Each seed is one fully deterministic simulated run: the seed drives
   the engine's tie-breaking perturbation, the fabric's jitter/drop
   stream, the workload arrivals, and the generated fault script. On a
   violation the checker shrinks the fault script, writes a repro
   artifact, and exits non-zero; `--replay FILE` re-executes an artifact
   deterministically. *)

open Ll_check

let pp_outcome_line (o : Checker.outcome) =
  let sc = o.Checker.scenario in
  let k = Fault_dsl.count_kind sc.Artifact.script in
  let faults =
    (* Classic verbs always; the gray (fail-slow) verbs only when the
       script has any, so non-gray sweep output is unchanged. *)
    let base =
      Printf.sprintf "%dc/%dp/%dl/%ds" k.Fault_dsl.crashes
        k.Fault_dsl.partitions k.Fault_dsl.losses k.Fault_dsl.stragglers
    in
    if k.Fault_dsl.linkfaults + k.Fault_dsl.stutters + k.Fault_dsl.degrades = 0
    then base
    else
      base
      ^ Printf.sprintf "/%dlf/%dst/%ddg" k.Fault_dsl.linkfaults
          k.Fault_dsl.stutters k.Fault_dsl.degrades
  in
  match o.Checker.violation with
  | Some v ->
    Printf.printf "FAIL %-8s seed=%-6d faults=%-11s %s\n%!"
      sc.Artifact.system sc.Artifact.seed faults
      (Format.asprintf "%a" Monitors.pp_violation v)
  | None ->
    Printf.printf "ok   %-8s seed=%-6d faults=%-11s acked=%d reads=%d \
                   stable=%d events=%d\n%!"
      sc.Artifact.system sc.Artifact.seed faults o.Checker.coverage.acked
      o.Checker.coverage.reads o.Checker.coverage.stable
      o.Checker.coverage.events

let write_artifact dir (o : Checker.outcome) =
  match Checker.artifact_of o with
  | None -> None
  | Some a ->
    (try if not (Sys.is_directory dir) then failwith "not a dir"
     with Sys_error _ | Failure _ -> (try Sys.mkdir dir 0o755 with Sys_error _ -> ()));
    let path =
      Filename.concat dir
        (Printf.sprintf "repro-%s-seed%d.txt" a.Artifact.scenario.Artifact.system
           a.Artifact.scenario.Artifact.seed)
    in
    Artifact.save ~path a;
    Some path

let run_sweep systems seeds seed_base shards jobs quick modes bug artifact_dir =
  let horizon =
    if quick then Checker.quick_horizon else Checker.default_horizon
  in
  let scenarios =
    List.concat_map
      (fun system ->
        List.init seeds (fun i ->
            Checker.scenario ~system ~seed:(seed_base + i) ~shards ~modes ?bug
              ~horizon ()))
      systems
  in
  Printf.printf
    "lazylog-check: %d runs (%s; seeds %d..%d; %d shards%s%s; %d jobs)\n%!"
    (List.length scenarios)
    (String.concat "," systems)
    seed_base
    (seed_base + seeds - 1)
    shards
    (String.concat ""
       (List.map (fun m -> "; " ^ (Mode.info m).Mode.phrase) modes))
    (match bug with Some b -> "; BUG GATE " ^ b | None -> "")
    jobs;
  let outcomes = Checker.sweep ~jobs scenarios in
  List.iter pp_outcome_line outcomes;
  let failures =
    List.filter (fun o -> o.Checker.violation <> None) outcomes
  in
  print_string ("\n" ^ Checker.summary outcomes);
  match failures with
  | [] ->
    Printf.printf "\nno invariant violations in %d runs\n"
      (List.length outcomes);
    0
  | f :: _ ->
    (* Shrink and persist the first failure (one artifact is enough to
       start debugging; the per-run lines above list the rest). *)
    let v = Option.get f.Checker.violation in
    Printf.printf "\nshrinking fault script for %s seed %d (%d steps)...\n%!"
      f.Checker.scenario.Artifact.system f.Checker.scenario.Artifact.seed
      (List.length f.Checker.scenario.Artifact.script);
    let shrunk_scenario =
      if v.Monitors.invariant = "exception" then f.Checker.scenario
      else Checker.shrink f.Checker.scenario v
    in
    let shrunk_outcome = Checker.run_one shrunk_scenario in
    let final =
      if shrunk_outcome.Checker.violation <> None then shrunk_outcome else f
    in
    Printf.printf "shrunk to %d steps\n"
      (List.length final.Checker.scenario.Artifact.script);
    (match write_artifact artifact_dir final with
    | Some path -> Printf.printf "repro artifact: %s\n" path
    | None -> ());
    Printf.printf "\n%d of %d runs violated an invariant\n"
      (List.length failures) (List.length outcomes);
    1

let run_replay path =
  let a = Artifact.load path in
  let sc = a.Artifact.scenario in
  Printf.printf
    "replaying %s: system=%s seed=%d shards=%d script=%d steps\n%!" path
    sc.Artifact.system sc.Artifact.seed sc.Artifact.shards
    (List.length sc.Artifact.script);
  Printf.printf "recorded violation: [%s] %s (event #%d)\n%!"
    a.Artifact.invariant a.Artifact.detail a.Artifact.at_event;
  let o = Checker.run_one sc in
  match o.Checker.violation with
  | Some v ->
    Printf.printf "reproduced:         %s\n"
      (Format.asprintf "%a" Monitors.pp_violation v);
    if
      v.Monitors.invariant = a.Artifact.invariant
      && v.Monitors.at_event = a.Artifact.at_event
    then begin
      print_endline "deterministic replay: violation matches the artifact";
      1
    end
    else begin
      print_endline
        "WARNING: replay violated an invariant but not at the recorded \
         event (artifact from a different build?)";
      1
    end
  | None ->
    print_endline "replay completed with NO violation (artifact stale?)";
    0

let main systems seeds seed_base shards jobs quick modes bug artifact_dir =
  function
  | Some path -> run_replay path
  | None ->
    run_sweep systems seeds seed_base shards jobs quick modes bug artifact_dir

open Cmdliner

let systems =
  Arg.(
    value
    & opt (list string) [ "erwin-m"; "erwin-st" ]
    & info [ "systems" ] ~docv:"SYS,..."
        ~doc:"Comma-separated systems to check (erwin-m, erwin-st).")

let seeds =
  Arg.(
    value & opt int 50
    & info [ "seeds" ] ~doc:"Number of seeds to sweep per system.")

let seed_base =
  Arg.(value & opt int 1 & info [ "seed-base" ] ~doc:"First seed.")

let shards =
  Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Number of storage shards.")

let jobs =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "jobs"; "j" ] ~doc:"Parallel runs (one OS domain each).")

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Shorter per-run horizon (CI smoke mode).")

(* One flag per {!Mode} entry, named by its artifact key with dashes;
   the term is the list of modes switched on, in table order. *)
let modes =
  List.fold_right
    (fun m rest ->
      let { Mode.key; doc; _ } = Mode.info m in
      let on =
        Arg.(
          value & flag
          & info [ String.map (function '_' -> '-' | c -> c) key ] ~doc)
      in
      Term.(const (fun on ms -> if on then m :: ms else ms) $ on $ rest))
    Mode.all (Term.const [])

let bug =
  Arg.(
    value
    & opt (some string) None
    & info [ "bug" ] ~docv:"NAME"
        ~doc:
          "Enable an intentional known-bad configuration (no-pinning) to \
           validate that the checker catches it.")

let artifact_dir =
  Arg.(
    value
    & opt string "check-artifacts"
    & info [ "artifact-dir" ] ~doc:"Where to write repro artifacts.")

let replay =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Re-execute a repro artifact deterministically and exit.")

let cmd =
  let doc =
    "seeded schedule/fault exploration of the Erwin systems with invariant \
     monitors"
  in
  Cmd.v
    (Cmd.info "lazylog-check" ~doc)
    Term.(
      const main $ systems $ seeds $ seed_base $ shards $ jobs $ quick $ modes
      $ bug $ artifact_dir $ replay)

let () = exit (Cmd.eval' cmd)
