(* Bechamel microbenchmarks of the hot data structures (real wall-clock
   performance of the OCaml implementation, not simulated time), plus the
   ordering-saturation benchmark comparing the background orderer at
   depth 1 with a fixed batch against its default pipelined, adaptive
   configuration (simulated time). *)

open Bechamel
open Toolkit

(* --- ordering saturation (simulated time) ---

   Isolates the background-ordering path: a feeder keeps the leader's
   sequencing log topped up directly (no client RPCs), shard disks are
   NVMe with an effectively unbounded dirty buffer, and records are small
   — so stable-gp advances exactly as fast as the
   claim/push/GC/stable pipeline can run. Reported per variant:
   ordering throughput (stable-gp advance per second) and the
   claim-to-stable lag distribution. *)

let saturation_cfg base =
  {
    base with
    Lazylog.Config.shard_disk = Lazylog.Config.Nvme;
    dirty_limit_bytes = 1 lsl 30;
  }

let ordering_saturation ~cfg ~duration =
  Ll_workload.Runner.in_sim (fun () ->
      let open Lazylog in
      let open Ll_sim in
      let cluster = Erwin_common.create ~cfg ~mode:Erwin_common.M in
      Orderer.start cluster;
      let slog = Seq_replica.log (Erwin_common.leader cluster) in
      let warmup = Engine.ms 10 in
      let t_measure = Engine.now () + warmup in
      let t_end = t_measure + duration in
      let seq = ref 0 in
      (* Top up the sequencing log in bursts; backpressure (capacity) just
         makes the feeder retry on the next microsecond tick. *)
      Engine.spawn ~name:"bench.feeder" (fun () ->
          let rec loop () =
            if Engine.now () < t_end then begin
              let full = ref false in
              let burst = ref 0 in
              while (not !full) && !burst < 512 do
                incr seq;
                let rid = { Types.Rid.client = 0; seq = !seq } in
                match
                  Seq_log.try_append slog
                    (Types.Data (Types.record ~rid ~size:64 ()))
                with
                | Some _ -> incr burst
                | None ->
                  decr seq;
                  full := true
              done;
              Engine.sleep (Engine.us 1);
              loop ()
            end
          in
          loop ());
      Engine.sleep_until t_measure;
      Stats.Reservoir.clear cluster.metrics.stable_lag;
      let g0 = cluster.stable_gp in
      Engine.sleep_until t_end;
      let g1 = cluster.stable_gp in
      let thr = Stats.throughput_per_sec ~count:(g1 - g0) ~dur:duration in
      let lag = cluster.metrics.stable_lag in
      ( thr,
        Stats.Reservoir.mean_us lag,
        Stats.Reservoir.percentile_us lag 99.0,
        Erwin_common.avg_batch cluster,
        cluster.metrics.largest_batch ))

(* Stable-gp lag at a fixed offered rate below depth-1 capacity: a feeder
   appends [rate] records/s to the leader's log while a sampler measures,
   every 5us, how many appended records are not yet stable. Reported as
   microseconds of lag at the offered rate (records_behind / rate). This
   is the user-visible cost of lazy ordering: how long a just-acked
   record waits before reads can see it. *)
let ordering_lag ~cfg ~rate ~duration =
  Ll_workload.Runner.in_sim (fun () ->
      let open Lazylog in
      let open Ll_sim in
      let cluster = Erwin_common.create ~cfg ~mode:Erwin_common.M in
      Orderer.start cluster;
      let slog = Seq_replica.log (Erwin_common.leader cluster) in
      let warmup = Engine.ms 10 in
      let t_measure = Engine.now () + warmup in
      let t_end = t_measure + duration in
      let appended = ref 0 in
      let per_us = rate /. 1e6 in
      Engine.spawn ~name:"bench.feeder" (fun () ->
          let acc = ref 0.0 in
          let rec loop () =
            if Engine.now () < t_end then begin
              acc := !acc +. per_us;
              while !acc >= 1.0 do
                incr appended;
                let rid = { Types.Rid.client = 0; seq = !appended } in
                (match
                   Seq_log.try_append slog
                     (Types.Data (Types.record ~rid ~size:64 ()))
                 with
                | Some _ -> ()
                | None -> decr appended);
                acc := !acc -. 1.0
              done;
              Engine.sleep (Engine.us 1);
              loop ()
            end
          in
          loop ());
      let lag = Stats.Reservoir.create ~name:"stable_gp_lag" () in
      Engine.spawn ~name:"bench.sampler" (fun () ->
          let rec loop () =
            if Engine.now () < t_end then begin
              if Engine.now () >= t_measure then begin
                let behind = !appended - cluster.stable_gp in
                (* records behind -> ns of lag at the offered rate *)
                Stats.Reservoir.add lag
                  (int_of_float (float_of_int behind *. 1e9 /. rate))
              end;
              Engine.sleep (Engine.us 5);
              loop ()
            end
          in
          loop ());
      Engine.sleep_until t_end;
      (Stats.Reservoir.mean_us lag, Stats.Reservoir.percentile_us lag 99.0))

let run_saturation () =
  Harness.section "Ordering saturation: depth 1 vs pipelined orderer";
  Harness.note
    "feeder-saturated sequencing log, 64B records, NVMe shards, unbounded dirty buffer";
  let duration = Harness.dur 40 200 in
  let depth1_cfg =
    saturation_cfg
      {
        Lazylog.Config.default with
        pipeline_depth = 1;
        min_batch = Lazylog.Config.default.max_batch;
      }
  in
  let piped_cfg = saturation_cfg Lazylog.Config.default in
  let thr_s, mean_s, p99_s, avg_s, max_s =
    ordering_saturation ~cfg:depth1_cfg ~duration
  in
  let thr_p, mean_p, p99_p, avg_p, max_p =
    ordering_saturation ~cfg:piped_cfg ~duration
  in
  Harness.table_header
    [ "variant"; "orders/s"; "lag_mean_us"; "lag_p99_us"; "avg_batch"; "max_batch" ];
  Harness.row "depth=1, fixed"
    [
      Harness.kops thr_s;
      Harness.f1 mean_s;
      Harness.f1 p99_s;
      Harness.f1 avg_s;
      string_of_int max_s;
    ];
  Harness.row "pipelined (depth=4, adaptive)"
    [
      Harness.kops thr_p;
      Harness.f1 mean_p;
      Harness.f1 p99_p;
      Harness.f1 avg_p;
      string_of_int max_p;
    ];
  Harness.row "speedup"
    [ Printf.sprintf "%.2fx" (thr_p /. thr_s); "-"; "-"; "-"; "-" ];
  (* Lag at 60% of the depth-1 orderer's measured capacity: both variants
     keep up on average, so the difference is pure pipeline latency. *)
  let rate = 0.6 *. thr_s in
  let lmean_s, lp99_s = ordering_lag ~cfg:depth1_cfg ~rate ~duration in
  let lmean_p, lp99_p = ordering_lag ~cfg:piped_cfg ~rate ~duration in
  Harness.section "Stable-gp lag at fixed rate (%.1fM records/s)"
    (rate /. 1e6);
  Harness.table_header [ "variant"; "lag_mean_us"; "lag_p99_us" ];
  Harness.row "depth=1, fixed" [ Harness.f1 lmean_s; Harness.f1 lp99_s ];
  Harness.row "pipelined (depth=4, adaptive)"
    [ Harness.f1 lmean_p; Harness.f1 lp99_p ]

(* The sequencing log's slot ring (the paper's ring buffer): 256 appends
   into a 64-entry log, garbage collecting the oldest 32 whenever it
   fills. *)
let ring_entries =
  Array.init 256 (fun i ->
      Lazylog.Types.Data
        (Lazylog.Types.record
           ~rid:{ Lazylog.Types.Rid.client = 0; seq = i }
           ~size:64 ()))

let ring_test =
  Test.make ~name:"seq_log ring append+gc"
    (Staged.stage (fun () ->
         let open Lazylog in
         let r = Seq_log.create ~capacity:64 in
         let head = ref 0 in
         Array.iter
           (fun e ->
             ignore (Seq_log.try_append r e);
             if Seq_log.live_count r = 64 then begin
               Seq_log.remove_ordered r
                 (List.init 32 (fun k ->
                      Types.entry_rid ring_entries.(!head + k)));
               head := !head + 32
             end)
           ring_entries))

let heap_test =
  Test.make ~name:"heap push/pop x256"
    (Staged.stage (fun () ->
         let h = Ll_sim.Heap.create ~cmp:Int.compare in
         for i = 0 to 255 do
           Ll_sim.Heap.push h ((i * 7919) mod 257)
         done;
         while not (Ll_sim.Heap.is_empty h) do
           ignore (Ll_sim.Heap.pop h)
         done))

let zipf_test =
  let rng = Ll_sim.Rng.create ~seed:1 in
  let g = Ll_sim.Rng.Zipf.create rng ~n:100_000 ~theta:0.99 in
  Test.make ~name:"zipf next x256"
    (Staged.stage (fun () ->
         for _ = 0 to 255 do
           ignore (Ll_sim.Rng.Zipf.next g)
         done))

let seq_log_test =
  Test.make ~name:"seq_log append+order x128"
    (Staged.stage (fun () ->
         let l = Lazylog.Seq_log.create ~capacity:1024 in
         for i = 1 to 128 do
           let rid = { Lazylog.Types.Rid.client = 0; seq = i } in
           ignore
             (Lazylog.Seq_log.try_append l
                (Lazylog.Types.Data (Lazylog.Types.record ~rid ~size:64 ())))
         done;
         let entries = Lazylog.Seq_log.unordered l in
         Lazylog.Seq_log.remove_ordered l
           (List.map Lazylog.Types.entry_rid entries)))

let reservoir_test =
  Test.make ~name:"reservoir add+p99 x1024"
    (Staged.stage (fun () ->
         let r = Ll_sim.Stats.Reservoir.create () in
         for i = 0 to 1023 do
           Ll_sim.Stats.Reservoir.add r ((i * 31) mod 977)
         done;
         ignore (Ll_sim.Stats.Reservoir.percentile_us r 99.0)))

(* End-to-end scheduler rate in real wall-clock time, on these event
   mixes:

   - sleep-fiber: long-lived fibers blocking in [Engine.sleep]; every
     event is an effect perform + continuation resume, so this row is
     bounded by the effects machinery (~43 ns/event measured floor on the
     dev box), not the scheduler.
   - timer-callback: chains of bare [call_after] callbacks; pure scheduler
     cost, the engine-dominated shape of fabric hops and timeout timers.
   - mixed-hop: callback chains with bimodal delays spanning all wheel
     levels (ns hops, 10-100 us RPCs, ~10 ms timeouts), exercising
     cascades the way a protocol mix does.
   - deep-*: 10^5 concurrently pending timers, as bare callbacks and as
     fiber timers. *)

let sleep_fibers n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let fibers = 64 in
      let per = n / fibers in
      for f = 0 to fibers - 1 do
        Engine.spawn ~name:"bench.tick" (fun () ->
            for i = 1 to per do
              Engine.sleep ((((f * 31) + i) mod 97) + 1)
            done)
      done)

let callback_chains n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 64 in
      let per = n / chains in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.call_after
              ((((c * 31) + i) mod 97) + 1)
              (fun () -> step (i + 1))
        in
        step 0
      done)

let mixed_hops n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 64 in
      let per = n / chains in
      for c = 0 to chains - 1 do
        let rec hop i =
          if i < per then begin
            let r = ((c * 131) + (i * 7919)) mod 1000 in
            let d =
              if r < 700 then (r / 8) + 1 (* 1..88 ns: same wheel cycle *)
              else if r < 950 then ((r - 700) * 400) + 1000 (* 1..101 us *)
              else ((r - 950) * 200_000) + 1_000_000 (* 1..11 ms *)
            in
            Engine.call_after d (fun () -> hop (i + 1))
          end
        in
        hop 0
      done)

(* The pre-PR shape of a timer callback: before [call_at] existed, every
   scheduled callback started a fresh fiber ([Engine.after]). Same event
   mix as [callback_chains], priced the old way. *)
let fiber_timer_chains n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 64 in
      let per = n / chains in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.after
              ((((c * 31) + i) mod 97) + 1)
              (fun () -> step (i + 1))
        in
        step 0
      done)

(* 100k concurrently pending timers — the live-set shape of the open-loop
   10^5-producer workload. A binary heap would pay O(log n) comparator
   sifts over a cold 100k-element array per event; the wheel stays O(1). *)
let deep_timers n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 100_000 in
      let per = (n / chains) + 1 in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.call_after
              (50_000 + (((c * 31) + (i * 7919)) mod 100_000))
              (fun () -> step (i + 1))
        in
        (* spread the chain starts so the live set is immediately 100k *)
        Engine.call_after ((c mod 50_000) + 1) (fun () -> step 0)
      done)

(* Same 100k-live mix in the pre-PR shape: fiber-per-timer. *)
let deep_fiber_timers n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 100_000 in
      let per = (n / chains) + 1 in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.after
              (50_000 + (((c * 31) + (i * 7919)) mod 100_000))
              (fun () -> step (i + 1))
        in
        Engine.after ((c mod 50_000) + 1) (fun () -> step 0)
      done)

let engine_workloads =
  [
    ("sleep-fiber", sleep_fibers);
    ("timer-fiber", fiber_timer_chains);
    ("timer-callback", callback_chains);
    ("mixed-hop", mixed_hops);
    ("deep-timer-100k", deep_timers);
    ("deep-fiber-100k", deep_fiber_timers);
  ]

(* Headline Mevents/s (timer-callback) — the number the --min-mevents CI
   regression floor checks. *)
let headline_mevents = ref 0.0

(* Multi-domain aggregate speedup over the single-domain mixed-hop rate —
   the number the --min-domain-scaling CI assertion checks on multi-core
   runners. *)
let aggregate_scaling = ref 0.0

(* Timed-recv storm: 10^5 parked receivers with armed deadlines, every
   one fed before its deadline fires. Cancellation retires each deadline
   cell at wake time, so the wheel's live set after the storm is zero —
   before cancellation this workload left one dead 20 ms timer per recv
   (10^5 cells to churn through cascades and dispatch as no-ops). The
   live-cell count is reported as its own row and JSON series so the
   regression is visible, not just slow. *)
let recv_storm js =
  let n = if !Harness.quick then 50_000 else 100_000 in
  let live_after = ref (-1) and cancelled = ref 0 in
  let t0 = Unix.gettimeofday () in
  let mw0 = Gc.minor_words () in
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let mb = Mailbox.create () in
      for _ = 1 to n do
        Engine.spawn (fun () ->
            ignore (Mailbox.recv_timeout mb ~timeout:(Engine.ms 20) : int option))
      done;
      for i = 1 to n do
        Engine.call_after (i land 1023) (fun () -> Mailbox.send mb i)
      done;
      Engine.after (Engine.us 10) (fun () ->
          live_after := Engine.pending_events ();
          cancelled := Engine.timers_cancelled ()));
  let wall = Unix.gettimeofday () -. t0 in
  let mw = (Gc.minor_words () -. mw0) /. float_of_int (Ll_sim.Engine.events_executed ()) in
  let events = Ll_sim.Engine.events_executed () in
  Harness.row "timed-recv-storm/wheel"
    [
      string_of_int events;
      Harness.f1 (wall *. 1000.);
      Printf.sprintf "%.2f" (float_of_int events /. wall /. 1e6);
      Printf.sprintf "%.1f" mw;
      "-";
    ];
  Harness.row "  storm live wheel cells"
    [
      string_of_int !live_after;
      "-";
      "-";
      "-";
      Printf.sprintf "%d cancelled" !cancelled;
    ];
  js :=
    {
      Harness.js_series = "recv-storm/wheel";
      js_throughput = float_of_int events /. wall;
      js_p50_us = 0.0;
      js_p99_us = 0.0;
      js_p999_us = 0.0;
    }
    :: {
         (* live-cells-after-storm, recorded in the throughput field:
            must stay 0 — every completed timed recv cancels its
            deadline cell. *)
         Harness.js_series = "recv-storm/live-cells";
         js_throughput = float_of_int !live_after;
         js_p50_us = 0.0;
         js_p99_us = 0.0;
         js_p999_us = 0.0;
       }
    :: !js

(* Engines are domain-local, so independent clusters shard across
   domains with zero coordination — the sweep/bench parallelism. The
   aggregate Mevents/s of [doms] domains each running the mixed-hop mix,
   over the rate of one domain running it alone. It runs before every
   other section, so no earlier section's retained major heap (shared by
   all domains) weighs on it, and over 3·10⁶ events per domain, a window
   of a few hundred milliseconds, not the rate rows' few tens. *)
let run_domain_scaling () =
  Harness.section "Multi-domain scaling (real time, run first)";
  Harness.table_header
    [ "workload"; "events"; "wall_ms"; "Mevents/s"; "mwords/ev"; "speedup" ];
  let n = 3_000_000 in
  let doms = min 8 (Domain.recommended_domain_count ()) in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let events = f () in
    let wall = Unix.gettimeofday () -. t0 in
    (events, wall, float_of_int events /. wall /. 1e6)
  in
  let events1, wall1, one =
    timed (fun () ->
        mixed_hops n;
        Ll_sim.Engine.events_executed ())
  in
  Harness.row "mixed-hop/wheel x1 domain"
    [ string_of_int events1; Harness.f1 (wall1 *. 1000.);
      Printf.sprintf "%.2f" one; "-"; "-" ];
  let events, wall, agg =
    timed (fun () ->
        Array.init doms (fun _ ->
            Domain.spawn (fun () ->
                mixed_hops n;
                Ll_sim.Engine.events_executed ()))
        |> Array.fold_left (fun a d -> a + Domain.join d) 0)
  in
  aggregate_scaling := agg /. one;
  Harness.row (Printf.sprintf "mixed-hop/wheel x%d domains" doms)
    [ string_of_int events; Harness.f1 (wall *. 1000.);
      Printf.sprintf "%.2f" agg; "-"; Printf.sprintf "%.2fx" (agg /. one) ];
  {
    Harness.js_series = Printf.sprintf "mixed-hop/wheel-x%d" doms;
    js_throughput = agg *. 1e6;
    js_p50_us = 0.0;
    js_p99_us = 0.0;
    js_p999_us = 0.0;
  }

let run_engine_rate scaling =
  Harness.section "Engine event throughput (real time)";
  Harness.note "mwords/ev = minor words allocated per event";
  let n = if !Harness.quick then 300_000 else 2_000_000 in
  Harness.table_header
    [ "workload"; "events"; "wall_ms"; "Mevents/s"; "mwords/ev"; "speedup" ];
  let js = ref [ scaling ] in
  List.iter
    (fun (wname, f) ->
      let t0 = Unix.gettimeofday () in
      let mw0 = Gc.minor_words () in
      f n;
      let mw1 = Gc.minor_words () in
      let wall = Unix.gettimeofday () -. t0 in
      let events = Ll_sim.Engine.events_executed () in
      let rate = float_of_int events /. wall /. 1e6 in
      Harness.row (wname ^ "/wheel")
        [
          string_of_int events;
          Harness.f1 (wall *. 1000.);
          Printf.sprintf "%.2f" rate;
          Harness.f1 ((mw1 -. mw0) /. float_of_int events);
          "-";
        ];
      if wname = "timer-callback" then headline_mevents := rate;
      js :=
        {
          Harness.js_series = wname ^ "/wheel";
          js_throughput = rate *. 1e6;
          js_p50_us = 0.0;
          js_p99_us = 0.0;
          js_p999_us = 0.0;
        }
        :: !js)
    engine_workloads;
  recv_storm js;
  Harness.write_json ~name:"micro" (List.rev !js)

let run () =
  let scaling = run_domain_scaling () in
  run_saturation ();
  run_engine_rate scaling;
  Harness.section "Microbenchmarks (bechamel, real time)";
  let tests =
    Test.make_grouped ~name:"micro" ~fmt:"%s %s"
      [
        ring_test;
        heap_test;
        zipf_test;
        seq_log_test;
        reservoir_test;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "  %-32s %10.1f ns/run\n" name est
      | _ -> Printf.printf "  %-32s (no estimate)\n" name)
    results
