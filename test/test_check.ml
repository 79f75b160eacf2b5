(* Tests for the ll_check simulation checker: fault-script and artifact
   serialization, clean sweeps over healthy systems, the crash-sweep
   property expressed on the always-on monitors, and the full
   bug-catch -> shrink -> artifact -> deterministic-replay loop against
   the intentional no-pinning bug gate. *)

open Ll_sim
open Ll_check

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let assert_clean (o : Checker.outcome) =
  match o.Checker.violation with
  | None -> ()
  | Some v ->
    Alcotest.failf "unexpected violation (%s seed %d): %s"
      o.Checker.scenario.Artifact.system o.Checker.scenario.Artifact.seed
      (Format.asprintf "%a" Monitors.pp_violation v)

(* --- serialization --- *)

let test_script_roundtrip () =
  (* Print/parse gives back every generated step exactly, float fields
     included: a printed probability or factor that lost digits would
     make a repro artifact replay a different run. *)
  let rng = Random.State.make [| 42 |] in
  let seen = ref 0 in
  for _ = 1 to 50 do
    let script =
      Fault_dsl.gen rng ~horizon:Checker.default_horizon ~nreplicas:3
        ~nshards:2
    in
    List.iter
      (fun step ->
        incr seen;
        checkb "step print/parse round-trips exactly" true
          (Fault_dsl.step_of_string (Fault_dsl.step_to_string step) = step))
      script
  done;
  checkb "generator produced steps" true (!seen > 20)

let test_gray_script_roundtrip () =
  (* The gray distribution's verbs (linkfault/stutter/degrade) must
     round-trip exactly too, and the generator must actually draw
     them. *)
  let rng = Random.State.make [| 97 |] in
  let counts = ref Fault_dsl.{
    crashes = 0; partitions = 0; losses = 0; stragglers = 0;
    linkfaults = 0; stutters = 0; degrades = 0 } in
  for _ = 1 to 80 do
    let script =
      Fault_dsl.gen ~gray:true rng ~horizon:Checker.default_horizon
        ~nreplicas:3 ~nshards:2
    in
    let c = Fault_dsl.count_kind script in
    counts :=
      Fault_dsl.
        {
          crashes = !counts.crashes + c.crashes;
          partitions = !counts.partitions + c.partitions;
          losses = !counts.losses + c.losses;
          stragglers = !counts.stragglers + c.stragglers;
          linkfaults = !counts.linkfaults + c.linkfaults;
          stutters = !counts.stutters + c.stutters;
          degrades = !counts.degrades + c.degrades;
        };
    List.iter
      (fun step ->
        checkb "gray step print/parse round-trips exactly" true
          (Fault_dsl.step_of_string (Fault_dsl.step_to_string step) = step))
      script
  done;
  checkb "gray generator draws link faults" true (!counts.Fault_dsl.linkfaults > 0);
  checkb "gray generator draws stutters" true (!counts.Fault_dsl.stutters > 0);
  checkb "gray generator draws degrades" true (!counts.Fault_dsl.degrades > 0)

let test_classic_generation_unchanged_by_gray_flag () =
  (* gen ~gray:false must be byte-identical to the historical generator:
     old seeds regenerate their exact scripts. *)
  let gen ~gray seed =
    Fault_dsl.gen ~gray
      (Random.State.make [| seed |])
      ~horizon:Checker.default_horizon ~nreplicas:3 ~nshards:2
    |> List.map Fault_dsl.step_to_string
  in
  for seed = 1 to 20 do
    Alcotest.(check (list string))
      "explicit ~gray:false matches default" (gen ~gray:false seed)
      (Fault_dsl.gen
         (Random.State.make [| seed |])
         ~horizon:Checker.default_horizon ~nreplicas:3 ~nshards:2
      |> List.map Fault_dsl.step_to_string)
  done

let test_pre_gray_artifact_parses () =
  (* Backward compat: artifacts written before the gray field existed
     must load with gray defaulting to off. Mode lines keep their
     historical keys and order whatever order the modes are given in. *)
  let a : Artifact.t =
    {
      Artifact.scenario =
        Checker.scenario ~system:"erwin-m" ~seed:3
          ~modes:[ Mode.Tenants; Mode.Replica_reads ]
          ~horizon:Checker.quick_horizon ();
      invariant = "durability";
      detail = "d";
      at_event = 17;
      at_time = 42;
    }
  in
  let s = Artifact.to_string a in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check (list string))
    "mode lines"
    [
      "batching false";
      "replica_reads true";
      "subscriptions false";
      "gray false";
      "tenants true";
    ]
    (List.filteri (fun i _ -> i >= 4 && i < 9) lines);
  let without_gray =
    List.filter
      (fun l -> not (String.length l >= 5 && String.sub l 0 5 = "gray "))
      lines
    |> String.concat "\n"
  in
  let a' = Artifact.of_string without_gray in
  checkb "gray defaults to false" false
    (List.mem Mode.Gray a'.Artifact.scenario.Artifact.modes);
  checkb "other modes kept" true
    (a'.Artifact.scenario.Artifact.modes
    = [ Mode.Replica_reads; Mode.Tenants ]);
  checki "rest of the artifact intact" 17 a'.Artifact.at_event

let test_legacy_serial_line () =
  (* Artifacts written before the serial orderer was removed carry a
     [serial] line. [serial false] named the orderer that still runs and
     must load and print back unchanged without the line; [serial true]
     must be refused, naming the removed orderer, rather than replay a
     different run. *)
  let a : Artifact.t =
    {
      Artifact.scenario =
        Checker.scenario ~system:"erwin-st" ~seed:5
          ~horizon:Checker.quick_horizon ();
      invariant = "durability";
      detail = "d";
      at_event = 9;
      at_time = 7;
    }
  in
  let s = Artifact.to_string a in
  let starts_with p l =
    String.length l >= String.length p
    && String.sub l 0 (String.length p) = p
  in
  let lines = String.split_on_char '\n' s in
  checkb "no serial line written" false
    (List.exists (starts_with "serial ") lines);
  let with_serial v =
    List.concat_map
      (fun l -> if starts_with "shards " l then [ l; "serial " ^ v ] else [ l ])
      lines
    |> String.concat "\n"
  in
  Alcotest.(check string)
    "legacy serial false round-trips" s
    (Artifact.to_string (Artifact.of_string (with_serial "false")));
  match Artifact.of_string (with_serial "true") with
  | _ -> Alcotest.fail "serial true accepted"
  | exception Failure msg ->
    let names_orderer =
      let needle = "serial orderer" in
      let n = String.length needle in
      let rec scan i =
        i + n <= String.length msg && (String.sub msg i n = needle || scan (i + 1))
      in
      scan 0
    in
    checkb "error names the removed serial orderer" true names_orderer

let test_script_generation_deterministic () =
  let gen seed =
    Fault_dsl.gen
      (Random.State.make [| seed |])
      ~horizon:Checker.default_horizon ~nreplicas:3 ~nshards:2
    |> List.map Fault_dsl.step_to_string
  in
  Alcotest.(check (list string)) "same seed, same script" (gen 7) (gen 7)

(* --- healthy systems stay clean --- *)

let test_healthy_sweep_clean () =
  let scenarios =
    List.concat_map
      (fun system ->
        List.init 3 (fun i ->
            Checker.scenario ~system ~seed:(i + 1)
              ~horizon:Checker.quick_horizon ()))
      [ "erwin-m"; "erwin-st" ]
  in
  let outcomes = Checker.sweep ~jobs:2 scenarios in
  checki "all scenarios ran" (List.length scenarios) (List.length outcomes);
  List.iter assert_clean outcomes;
  let acked =
    List.fold_left
      (fun a (o : Checker.outcome) -> a + o.Checker.coverage.Monitors.acked)
      0 outcomes
  in
  checkb "workload made progress" true (acked > 100)

let test_healthy_sweep_clean_batched () =
  (* Same shape as the sweep above, but the clients run with append group
     commit on: batches that straddle injected jitter must still never
     half-ack, and the monitors must stay silent. *)
  let scenarios =
    List.concat_map
      (fun system ->
        List.init 3 (fun i ->
            Checker.scenario ~system ~seed:(i + 11) ~modes:[ Mode.Batching ]
              ~horizon:Checker.quick_horizon ()))
      [ "erwin-m"; "erwin-st" ]
  in
  let outcomes = Checker.sweep ~jobs:2 scenarios in
  checki "all scenarios ran" (List.length scenarios) (List.length outcomes);
  List.iter assert_clean outcomes;
  let acked =
    List.fold_left
      (fun a (o : Checker.outcome) -> a + o.Checker.coverage.Monitors.acked)
      0 outcomes
  in
  checkb "workload made progress" true (acked > 100)

let test_healthy_sweep_clean_replica_reads () =
  (* The demand-driven read path under crash faults: readers probe at
     the stable tail, so demand binding, backup serving and
     forward-to-primary all fire, and the read-agreement /
     read-stability monitors must stay silent. *)
  let scenarios =
    List.concat_map
      (fun system ->
        List.init 3 (fun i ->
            Checker.scenario ~system ~seed:(i + 21)
              ~modes:[ Mode.Replica_reads ]
              ~horizon:Checker.quick_horizon ()))
      [ "erwin-m"; "erwin-st" ]
  in
  let outcomes = Checker.sweep ~jobs:2 scenarios in
  checki "all scenarios ran" (List.length scenarios) (List.length outcomes);
  List.iter assert_clean outcomes;
  let reads =
    List.fold_left
      (fun a (o : Checker.outcome) -> a + o.Checker.coverage.Monitors.reads)
      0 outcomes
  in
  checkb "tail readers actually read" true (reads > 50)

let test_healthy_sweep_clean_subscriptions () =
  (* Streaming delivery under the fault scripts: two subscribers (one
     with a crash/restart cycle) receive pushes off the stable tail
     while crashes, partitions, loss and stragglers fire. The
     exactly-once monitor must stay silent and every stable record must
     have been delivered by the drain. *)
  let scenarios =
    List.concat_map
      (fun system ->
        List.init 3 (fun i ->
            Checker.scenario ~system ~seed:(i + 31)
              ~modes:[ Mode.Subscriptions ]
              ~horizon:Checker.quick_horizon ()))
      [ "erwin-m"; "erwin-st" ]
  in
  let outcomes = Checker.sweep ~jobs:2 scenarios in
  checki "all scenarios ran" (List.length scenarios) (List.length outcomes);
  List.iter assert_clean outcomes;
  let delivered =
    List.fold_left
      (fun a (o : Checker.outcome) ->
        a + o.Checker.coverage.Monitors.delivered)
      0 outcomes
  in
  checkb "subscribers actually received pushes" true (delivered > 100)

let test_healthy_sweep_clean_gray () =
  (* Hostile-world mode: fail-slow faults (asymmetric link faults, disk
     stutter/degrade) against every mitigation (hedged reads, retry
     budgets, outlier eviction). The safety monitors and the post-drain
     progress audit must stay silent. *)
  let scenarios =
    List.concat_map
      (fun system ->
        List.init 4 (fun i ->
            Checker.scenario ~system ~seed:(i + 41) ~modes:[ Mode.Gray ]
              ~horizon:Checker.quick_horizon ()))
      [ "erwin-m"; "erwin-st" ]
  in
  let outcomes = Checker.sweep ~jobs:2 scenarios in
  checki "all scenarios ran" (List.length scenarios) (List.length outcomes);
  List.iter assert_clean outcomes;
  let acked =
    List.fold_left
      (fun a (o : Checker.outcome) -> a + o.Checker.coverage.Monitors.acked)
      0 outcomes
  in
  checkb "workload made progress under gray faults" true (acked > 100)

(* --- combined modes ---

   Every pair of modes, and all of them at once, on both systems: the
   covering array the CI rows sweep over 100 seeds, here at one seed. *)

let test_mode_pairs_clean () =
  let rec pairs = function
    | [] -> []
    | m :: rest -> List.map (fun m' -> [ m; m' ]) rest @ pairs rest
  in
  let scenarios =
    List.concat_map
      (fun system ->
        List.map
          (fun modes ->
            Checker.scenario ~system ~seed:1 ~modes
              ~horizon:Checker.quick_horizon ())
          (Mode.all :: pairs Mode.all))
      [ "erwin-m"; "erwin-st" ]
  in
  checki "ten pairs and all-on, both systems" 22 (List.length scenarios);
  List.iter assert_clean (Checker.sweep ~jobs:2 scenarios)

(* Seeds where a latency-outlier eviction starts a view change and its
   recovery replica then crashes. Retrying the dead replica held the view
   change open past the drain, so acked records never bound (seed 73
   under two mode pairs) or the sequencing layer stopped acking while
   the view change was still open at the drain deadline (seeds 73 and
   260 with gray alone); the progress audit flags both. The view change
   must move on to a live survivor. *)
let test_recovery_seed ~seed system modes () =
  assert_clean
    (Checker.run_one
       (Checker.scenario ~system ~seed ~modes
          ~horizon:Checker.quick_horizon ()))

(* --- coverage summary ---

   The sweep's coverage summary, pinned as text: seeds 1-3 of both
   systems in the default, gray and tenants shapes, with the same
   scenarios `lazylog_check --seeds 3 --quick [--gray | --tenants]`
   runs. The expected blocks are that command's output. *)

let summary_default = {|coverage summary
  erwin-st    3 seeds | 0 violations | 2294 appends acked | 1220 records read | 1 crashes | 2 view installs | 0 delivered | 0.2M events
  erwin-m     3 seeds | 0 violations | 2344 appends acked | 1236 records read | 1 crashes | 2 view installs | 0 delivered | 0.1M events
|}

let summary_gray = {|coverage summary
  erwin-st    3 seeds | 0 violations | 2706 appends acked | 1328 records read | 1 crashes | 2 view installs | 0 delivered | 0.2M events
                gray | 6 gray faults | 1 outliers evicted | 0 retries (0 shed) | 0 hedges won
  erwin-m     3 seeds | 0 violations | 2867 appends acked | 1400 records read | 1 crashes | 2 view installs | 0 delivered | 0.2M events
                gray | 6 gray faults | 1 outliers evicted | 0 retries (0 shed) | 8 hedges won
|}

let summary_tenants = {|coverage summary
  erwin-st    3 seeds | 0 violations | 26080 appends acked | 2041 records read | 1 crashes | 2 view installs | 0 delivered | 1.1M events
                gray | 0 gray faults | 0 outliers evicted | 1 retries (0 shed) | 0 hedges won
             tenants | 12 tenant-log stabilizations | 239 appends shed by admission control
  erwin-m     3 seeds | 0 violations | 31578 appends acked | 2113 records read | 1 crashes | 2 view installs | 0 delivered | 0.8M events
                gray | 0 gray faults | 0 outliers evicted | 3 retries (0 shed) | 0 hedges won
             tenants | 12 tenant-log stabilizations | 582 appends shed by admission control
|}

let test_coverage_summary () =
  List.iter
    (fun (shape, modes, want) ->
      let scenarios =
        List.concat_map
          (fun system ->
            List.init 3 (fun i ->
                Checker.scenario ~system ~seed:(i + 1) ~modes
                  ~horizon:Checker.quick_horizon ()))
          [ "erwin-m"; "erwin-st" ]
      in
      Alcotest.(check string)
        ("coverage summary, " ^ shape)
        want
        (Checker.summary (Checker.sweep ~jobs:2 scenarios)))
    [
      ("default", [], summary_default);
      ("gray", [ Mode.Gray ], summary_gray);
      ("tenants", [ Mode.Tenants ], summary_tenants);
    ]

(* The crash-sweep property from the linearizability suite, re-expressed
   on the checker's monitors: for ANY crash time in the first 4 ms and
   any victim, no invariant fires — durability of acked records, order,
   and stable-prefix immutability hold through the reconfiguration. *)
let crash_prop ~name ~modes =
  QCheck.Test.make ~name ~count:15
    QCheck.(pair (int_bound 4_000) (int_bound 2))
    (fun (crash_us, victim) ->
      let sc =
        Checker.scenario ~system:"erwin-m"
          ~seed:(crash_us + (victim * 7919))
          ~modes ~horizon:Checker.quick_horizon ()
      in
      let sc =
        {
          sc with
          Artifact.script =
            [ Fault_dsl.Crash { at = Engine.us crash_us; victim } ];
        }
      in
      (Checker.run_one sc).Checker.violation = None)

let prop_monitors_clean_any_crash_time =
  crash_prop ~name:"erwin-m monitors clean for any crash point"
    ~modes:[]

(* With the linger batcher on, a batch in flight (or still lingering)
   when the replica crashes must fail atomically per record — a half-ack
   would trip the durability monitor after reconfiguration. *)
let prop_monitors_clean_any_crash_time_batched =
  crash_prop
    ~name:"erwin-m batched monitors clean for any crash point"
    ~modes:[ Mode.Batching ]

(* --- the checker catches a real (planted) bug --- *)

let find_planted_bug () =
  let rec go seed =
    if seed > 40 then
      Alcotest.fail "no-pinning bug not caught within 40 seeds"
    else
      let sc =
        Checker.scenario ~system:"erwin-st" ~seed ~bug:"no-pinning"
          ~horizon:Checker.quick_horizon ()
      in
      let o = Checker.run_one sc in
      match o.Checker.violation with Some v -> (o, v) | None -> go (seed + 1)
  in
  go 1

let test_bug_catch_shrink_replay () =
  let o, v = find_planted_bug () in
  Alcotest.(check string)
    "no-pinning violates durability" "durability" v.Monitors.invariant;
  (* Deterministic replay: the same scenario violates the same invariant
     at the same event counter. *)
  let o2 = Checker.run_one o.Checker.scenario in
  (match o2.Checker.violation with
  | Some v2 ->
    Alcotest.(check string)
      "replay: same invariant" v.Monitors.invariant v2.Monitors.invariant;
    checki "replay: same event counter" v.Monitors.at_event
      v2.Monitors.at_event
  | None -> Alcotest.fail "replay did not reproduce the violation");
  (* Greedy shrinking keeps the violation while never growing the
     script. *)
  let shrunk = Checker.shrink o.Checker.scenario v in
  checkb "shrunk script no longer" true
    (List.length shrunk.Artifact.script
    <= List.length o.Checker.scenario.Artifact.script);
  (match (Checker.run_one shrunk).Checker.violation with
  | Some v3 ->
    Alcotest.(check string)
      "shrunk script still violates" v.Monitors.invariant
      v3.Monitors.invariant
  | None -> Alcotest.fail "shrunk script lost the violation");
  (* Artifact serialization: print/parse is a fixed point, and a parsed
     artifact still replays. *)
  let a = Option.get (Checker.artifact_of o) in
  let s = Artifact.to_string a in
  let a' = Artifact.of_string s in
  Alcotest.(check string) "artifact print/parse fixed point" s
    (Artifact.to_string a');
  (match (Checker.run_one a'.Artifact.scenario).Checker.violation with
  | Some v4 ->
    checki "parsed artifact replays at recorded event" a.Artifact.at_event
      v4.Monitors.at_event
  | None -> Alcotest.fail "parsed artifact did not reproduce")

(* Without the bug gate the very same seeds stay clean — the catch above
   is the gate's doing, not checker noise. *)
let test_same_seeds_clean_without_bug () =
  for seed = 1 to 5 do
    assert_clean
      (Checker.run_one
         (Checker.scenario ~system:"erwin-st" ~seed
            ~horizon:Checker.quick_horizon ()))
  done

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "check"
    [
      ( "serialization",
        [
          Alcotest.test_case "fault script round-trip" `Quick
            test_script_roundtrip;
          Alcotest.test_case "script generation deterministic" `Quick
            test_script_generation_deterministic;
          Alcotest.test_case "gray fault script round-trip" `Quick
            test_gray_script_roundtrip;
          Alcotest.test_case "classic generation unchanged by gray flag"
            `Quick test_classic_generation_unchanged_by_gray_flag;
          Alcotest.test_case "pre-gray artifact parses" `Quick
            test_pre_gray_artifact_parses;
          Alcotest.test_case "legacy serial line" `Quick
            test_legacy_serial_line;
        ] );
      ( "healthy systems",
        [
          Alcotest.test_case "sweep stays clean" `Quick
            test_healthy_sweep_clean;
          Alcotest.test_case "sweep stays clean with batching" `Quick
            test_healthy_sweep_clean_batched;
          Alcotest.test_case "sweep stays clean with replica reads" `Quick
            test_healthy_sweep_clean_replica_reads;
          Alcotest.test_case "sweep stays clean with subscriptions" `Quick
            test_healthy_sweep_clean_subscriptions;
          Alcotest.test_case "sweep stays clean under gray faults" `Quick
            test_healthy_sweep_clean_gray;
          Alcotest.test_case "erwin-st clean on bug-sweep seeds" `Quick
            test_same_seeds_clean_without_bug;
          Alcotest.test_case "coverage summary text" `Quick
            test_coverage_summary;
        ]
        @ qc
            [
              prop_monitors_clean_any_crash_time;
              prop_monitors_clean_any_crash_time_batched;
            ] );
      ( "combined modes",
        [
          Alcotest.test_case "every mode pair stays clean" `Quick
            test_mode_pairs_clean;
          Alcotest.test_case "seed 73 erwin-st, batching + gray" `Quick
            (test_recovery_seed ~seed:73 "erwin-st" [ Mode.Batching; Mode.Gray ]);
          Alcotest.test_case "seed 73 erwin-m, tenants + gray" `Quick
            (test_recovery_seed ~seed:73 "erwin-m" [ Mode.Tenants; Mode.Gray ]);
          Alcotest.test_case "seed 73 erwin-st, gray" `Quick
            (test_recovery_seed ~seed:73 "erwin-st" [ Mode.Gray ]);
          Alcotest.test_case "seed 260 erwin-st, gray" `Quick
            (test_recovery_seed ~seed:260 "erwin-st" [ Mode.Gray ]);
        ] );
      ( "planted bug",
        [
          Alcotest.test_case "catch, shrink, replay" `Quick
            test_bug_catch_shrink_replay;
        ] );
    ]
