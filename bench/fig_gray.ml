(* `--fig gray`: gray-failure resilience (not a paper figure).

   Fail-slow, not fail-stop: the victim keeps answering heartbeats, so
   the crash detector never fires — only latency reveals the failure.
   Both legs A/B a single injected gray fault against the mitigation
   this PR adds, against a healthy baseline and the unmitigated run.

   (a) Read p99 under a fail-slow backup, Erwin-m with [replica_reads]
   over a pre-populated stable log (1 shard, 3 replicas): one backup's
   network path gains a fixed per-message delay, so a third of the
   rotated reads land on a replica that answers ~1 ms late. Hedged
   reads race a second copy to the next replica after the adaptive
   per-peer deadline, restoring tail latency to within ~2x the healthy
   baseline.

   (b) Append p99 under a straggling sequencing replica, Erwin-m: the
   1-RTT append waits on *every* sequencing replica, so one slow
   follower taxes every append. The latency-outlier monitor scores
   per-peer RTTs, spots the straggler the heartbeats cannot see, and
   evicts it (section 5.5 removal); appends recover to the healthy
   baseline once the view changes. *)

open Ll_sim
open Ll_net
open Lazylog
open Harness
open Ll_workload

(* --- (a) hedged reads under a fail-slow backup --- *)

let read_latency ~hedged ~victim_delay ~duration =
  Runner.in_sim (fun () ->
      let cfg =
        {
          Config.default with
          replica_reads = true;
          hedge_floor = (if hedged then Some (Engine.us 20) else None);
        }
      in
      let cluster = Erwin_m.create ~cfg () in
      let nrecords = 2048 in
      let writer = Erwin_m.client cluster in
      for i = 0 to nrecords - 1 do
        ignore (writer.Log_api.append ~size:4096 ~data:(Runner.data_for i) : bool)
      done;
      (* Everything bound and readable before the read load starts. *)
      while cluster.Erwin_common.stable_gp < nrecords do
        Engine.sleep (Engine.us 100)
      done;
      (* Fail-slow injection: every message into and out of one backup
         gains [victim_delay]. The node stays alive and keeps serving. *)
      if victim_delay > 0 then begin
        let shard = Erwin_common.shard_by_id cluster 0 in
        let victim = List.hd (Shard.backup_ids shard) in
        Fabric.set_extra_delay
          (Fabric.node_by_id cluster.Erwin_common.fabric victim)
          victim_delay
      end;
      let lat = Stats.Reservoir.create ~name:"gray_read" () in
      let chunk = 8 in
      let nreaders = 16 in
      let readers =
        Array.init nreaders (fun _ -> Erwin_m.client cluster)
      in
      (* Warmup covers the rotation settling and, with hedging, the
         per-peer latency scores converging past the cold-start floor. *)
      let t_measure = Engine.now () + Engine.ms 4 in
      let t_end = t_measure + duration in
      Array.iteri
        (fun k r ->
          Engine.spawn ~name:(Printf.sprintf "bench.grayreader%d" k) (fun () ->
              let rng = Rng.create ~seed:(4000 + k) in
              let rec loop () =
                if Engine.now () < t_end then begin
                  let from = Rng.int rng (nrecords - chunk) in
                  let t0 = Engine.now () in
                  ignore (r.Log_api.read ~from ~len:chunk : Types.record list);
                  if t0 >= t_measure then
                    Stats.Reservoir.add lat (Engine.now () - t0);
                  loop ()
                end
              in
              loop ()))
        readers;
      Engine.sleep_until (t_end + Engine.ms 2);
      lat)

(* --- (b) outlier eviction of a straggling sequencing replica --- *)

let append_latency_straggler ~outlier ~victim_delay ~duration =
  Runner.in_sim (fun () ->
      let cfg = { Config.default with outlier_detection = outlier } in
      let cluster = Erwin_m.create ~cfg () in
      (* Straggle the last follower: still alive, still acking — just
         [victim_delay] late in each direction, on every message. *)
      if victim_delay > 0 then begin
        let victim =
          List.nth cluster.Erwin_common.replicas
            (List.length cluster.Erwin_common.replicas - 1)
        in
        Fabric.set_extra_delay
          (Fabric.node_by_id cluster.Erwin_common.fabric
             (Seq_replica.node_id victim))
          victim_delay
      end;
      let lat = Stats.Reservoir.create ~name:"gray_append" () in
      let clients = Array.init 8 (fun _ -> Erwin_m.client cluster) in
      (* The measurement window starts late enough for the outlier
         monitor to have sampled every replica and completed the
         eviction's view change (it needs ~8 probe rounds at 500 us),
         so the mitigated series reports the steady state after
         removal, not the detection transient. *)
      let t_measure = Engine.now () + Engine.ms 10 in
      let t_end = t_measure + duration in
      Arrival.open_loop ~rate:20_000. ~until:t_end (fun i ->
          let t0 = Engine.now () in
          if clients.(i mod 8).Log_api.append ~size:512 ~data:(Runner.data_for i)
          then if t0 >= t_measure then Stats.Reservoir.add lat (Engine.now () - t0));
      Engine.sleep_until (t_end + Engine.ms 2);
      lat)

let run () =
  section
    "Gray (a): Read Latency under a Fail-Slow Backup (Erwin-m, 3 replicas, \
     hedged reads)";
  let rduration = dur 20 100 in
  let victim = Engine.us 400 in
  let r_healthy = read_latency ~hedged:false ~victim_delay:0 ~duration:rduration in
  let r_slow = read_latency ~hedged:false ~victim_delay:victim ~duration:rduration in
  let r_hedged = read_latency ~hedged:true ~victim_delay:victim ~duration:rduration in
  table_header [ "series"; "p50_us"; "p99_us" ];
  let prow name r =
    row name
      [
        f1 (Stats.Reservoir.percentile_us r 50.0);
        f1 (Stats.Reservoir.percentile_us r 99.0);
      ]
  in
  prow "healthy" r_healthy;
  prow "fail-slow unmitigated" r_slow;
  prow "fail-slow hedged" r_hedged;
  let p99 r = Stats.Reservoir.percentile_us r 99.0 in
  note "fail-slow backup inflates read p99 %.1fx; hedging restores it to %.2fx healthy"
    (p99 r_slow /. p99 r_healthy)
    (p99 r_hedged /. p99 r_healthy);

  section
    "Gray (b): Append Latency under a Straggling Sequencing Replica \
     (Erwin-m, outlier eviction)";
  let aduration = dur 25 100 in
  let a_healthy =
    append_latency_straggler ~outlier:false ~victim_delay:0 ~duration:aduration
  in
  let a_slow =
    append_latency_straggler ~outlier:false ~victim_delay:victim
      ~duration:aduration
  in
  let a_evicted =
    append_latency_straggler ~outlier:true ~victim_delay:victim
      ~duration:aduration
  in
  table_header [ "series"; "p50_us"; "p99_us" ];
  prow "healthy" a_healthy;
  prow "straggler unmitigated" a_slow;
  prow "straggler evicted" a_evicted;
  note
    "straggling follower taxes every append %.1fx at p99; outlier eviction \
     recovers to %.2fx healthy"
    (p99 a_slow /. p99 a_healthy)
    (p99 a_evicted /. p99 a_healthy);

  let js name r =
    {
      js_series = name;
      js_throughput = 0.;
      js_p50_us = Stats.Reservoir.percentile_us r 50.0;
      js_p99_us = p99 r;
      js_p999_us = 0.0;
    }
  in
  write_json ~name:"gray"
    [
      js "read healthy" r_healthy;
      js "read fail-slow unmitigated" r_slow;
      js "read fail-slow hedged" r_hedged;
      js "append healthy" a_healthy;
      js "append straggler unmitigated" a_slow;
      js "append straggler evicted" a_evicted;
    ]
