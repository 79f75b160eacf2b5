(* Per-layer metrics, reported by the traced pass.

   Counts are deltas of public counters over the measured windows, per
   completed operation; gauges are the traced sampler's readings every
   10 us of simulated time; host unit costs come from the isolated drives
   in [Drives]. The sampler's own engine events are counted out. A metric
   whose layer did no such work in the workload (a reconfiguration
   without a crash, a read fraction without reads) reads 0. *)

open Lazylog
open Point

let names =
  [
    ("sim.events_per_op", "1/op");
    ("sim.fibers_per_op", "1/op");
    ("sim.timers_cancelled_per_op", "1/op");
    ("sim.pending_events_p99", "events");
    ("sim.host_ns_per_event", "ns");
    ("sim.words_per_event", "words");
    ("net.msgs_per_op", "1/op");
    ("net.bytes_per_op", "B/op");
    ("net.rpc_timeouts_per_kop", "1/kop");
    ("net.rpc_retries_per_kop", "1/kop");
    ("net.rpc_shed_per_kop", "1/kop");
    ("net.host_ns_per_msg", "ns");
    ("net.words_per_msg", "words");
    ("net.host_ns_per_call", "ns");
    ("seq.msgs_in_per_op", "1/op");
    ("seq.busy_frac", "ratio");
    ("seq.live_p50", "entries");
    ("seq.live_p99", "entries");
    ("seq.unclaimed_p99", "entries");
    ("seq.host_ns_per_entry", "ns");
    ("seq.words_per_entry", "words");
    ("orderer.batches_per_kop", "1/kop");
    ("orderer.batch_mean", "entries");
    ("orderer.depth_mean", "batches");
    ("orderer.largest_batch", "entries");
    ("orderer.stable_lag_p50_us", "us");
    ("orderer.stable_lag_p99_us", "us");
    ("orderer.push_host_ns_per_record", "ns");
    ("shard.disk_ops_per_op", "1/op");
    ("shard.disk_bytes_per_op", "B/op");
    ("shard.disk_queue_p99_us", "us");
    ("shard.staged_p99", "records");
    ("shard.mirror_lag_p99", "positions");
    ("shard.slow_read_frac", "ratio");
    ("client.append_p50_us", "us");
    ("client.append_p999_us", "us");
    ("client.read_p50_us", "us");
    ("client.read_p999_us", "us");
    ("client.inflight_p99", "appends");
    ("reconfig.detect_ms", "ms");
    ("reconfig.seal_us", "us");
    ("reconfig.flush_us", "us");
    ("reconfig.new_view_ms", "ms");
    ("reconfig.total_ms", "ms");
    ("reconfig.stalled_appends", "appends");
    ("reconfig.stall_max_ms", "ms");
    ("host.ns_per_op", "ns/op");
    ("host.ref_ns", "ns");
    ("host.unattributed_ns_per_op", "ns/op");
    ("trace.overhead_frac", "ratio");
  ]

type units = {
  sim : Drives.cost;
  net : Drives.net;
  seq : Drives.cost;
  push : Drives.cost;
}

let sum = Workloads.sum
let finite_or_0 x = if Float.is_finite x then x else 0.0

(* Drive every layer at the workload's record size and the ordering
   batch size the traced pass measured. *)
let drive ~smoke (rs : result list) =
  let k = if smoke then 50 else 1 in
  let spec = (List.hd rs).spec in
  let batches = sum (fun r -> r.s1.batches - r.s0.batches) rs in
  let batched = sum (fun r -> r.s1.batched - r.s0.batched) rs in
  let batch = if batches = 0 then 1 else max 1 (batched / batches) in
  {
    sim = Drives.sim (1_000_000 / k);
    net = Drives.net (100_000 / k);
    seq = Drives.seq spec.system ~size:spec.size ~batch (200_000 / k);
    push = Drives.push ~cfg:spec.cfg ~size:spec.size ~batch (20_000 / k);
  }

let gauge f rs =
  Array.concat
    (List.map
       (fun r ->
         match r.gauges with Some g -> Host.Vec.to_array (f g) | None -> [||])
       rs)

let mean a =
  if Array.length a = 0 then 0.0
  else
    float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

let p99 f rs = float_of_int (Host.percentile_int (gauge f rs) 99.0)

(* [host_ns] is the untraced repetitions' CPU ns per op (the residual is
   taken from it), [ref_ns] their reference-loop time per iteration, and
   [overhead] the traced/untraced host-cost ratio minus one. *)
let metrics (rs : result list) ~units ~host_ns ~ref_ns ~overhead =
  let ops = float_of_int (Workloads.ops rs) in
  let d f = float_of_int (sum (fun r -> f r.s1 - f r.s0) rs) in
  let per_op x = x /. ops and per_kop x = x *. 1e3 /. ops in
  let spec = (List.hd rs).spec in
  let window_ns = float_of_int (sum (fun r -> r.t_end - r.t_measure) rs) in
  let replicas = float_of_int spec.cfg.Config.seq_replica_count in
  let events = d (fun s -> s.events) -. float_of_int (sum (fun r -> r.samples) rs) in
  let seq_in = d (fun s -> s.seq_in) /. replicas in
  let acks = d (fun s -> s.acks) in
  let batches = d (fun s -> s.batches) and batched = d (fun s -> s.batched) in
  let wire =
    match spec.system with Erwin_m -> spec.size | Erwin_st -> Types.meta_size
  in
  let busy =
    (seq_in *. float_of_int spec.cfg.Config.seq_base_ns)
    +. (acks *. float_of_int wire *. spec.cfg.Config.seq_per_byte_ns)
  in
  let rpc f = d (fun s -> f s.rpc) in
  let reads = sum (fun r -> r.reads_in_window) rs in
  let merged f = Workloads.merge f rs in
  let pct f p = Workloads.pct (merged f) p in
  (* Reconfiguration phases of each crash, as medians over crashes. *)
  let crashes =
    List.filter_map
      (fun r ->
        match List.rev r.reconfig with t :: _ -> Some (r, t) | [] -> None)
      rs
  in
  let phase f =
    match crashes with
    | [] -> 0.0
    | cs -> Host.median (List.map (fun (r, t) -> f r t) cs)
  in
  let ms = Ll_sim.Engine.to_ms and us = Ll_sim.Engine.to_us in
  (* Modelled attribution: each drive's cost less the events and messages
     it shares with the layers below, times the workload's counts. *)
  let ns_event = Drives.ns_per units.sim in
  let own c ~msg = Drives.ns_per c -. (ns_event *. Drives.events_per c) -. (msg *. Drives.msgs_per c) in
  let ns_msg = own units.net.msg ~msg:0.0 in
  let attributed =
    (ns_event *. per_op events)
    +. (ns_msg *. per_op (d (fun s -> s.msgs)))
    +. (own units.seq ~msg:ns_msg *. per_op acks *. replicas)
    +. (own units.push ~msg:ns_msg *. per_op batched)
  in
  [
    ("sim.events_per_op", per_op events);
    ("sim.fibers_per_op", per_op (d (fun s -> s.fibers)));
    ("sim.timers_cancelled_per_op", per_op (d (fun s -> s.cancelled)));
    ("sim.pending_events_p99", p99 (fun g -> g.pending) rs);
    ("sim.host_ns_per_event", ns_event);
    ("sim.words_per_event", Drives.words_per units.sim);
    ("net.msgs_per_op", per_op (d (fun s -> s.msgs)));
    ("net.bytes_per_op", per_op (d (fun s -> s.bytes)));
    ("net.rpc_timeouts_per_kop", per_kop (rpc (fun c -> c.Ll_net.Rpc.cs_timeouts)));
    ("net.rpc_retries_per_kop", per_kop (rpc (fun c -> c.Ll_net.Rpc.cs_retries)));
    ("net.rpc_shed_per_kop", per_kop (rpc (fun c -> c.Ll_net.Rpc.cs_shed)));
    ("net.host_ns_per_msg", Drives.ns_per units.net.msg);
    ("net.words_per_msg", Drives.words_per units.net.msg);
    ("net.host_ns_per_call", Drives.ns_per units.net.call);
    ("seq.msgs_in_per_op", per_op seq_in);
    ("seq.busy_frac", busy /. window_ns);
    ("seq.live_p50", float_of_int (Host.percentile_int (gauge (fun g -> g.live) rs) 50.0));
    ("seq.live_p99", p99 (fun g -> g.live) rs);
    ("seq.unclaimed_p99", p99 (fun g -> g.unclaimed) rs);
    ("seq.host_ns_per_entry", Drives.ns_per units.seq);
    ("seq.words_per_entry", Drives.words_per units.seq);
    ("orderer.batches_per_kop", per_kop batches);
    ("orderer.batch_mean", if batches = 0.0 then 0.0 else batched /. batches);
    ("orderer.depth_mean", mean (gauge (fun g -> g.depth) rs));
    ( "orderer.largest_batch",
      float_of_int (List.fold_left (fun m r -> max m r.largest_batch) 0 rs) );
    ("orderer.stable_lag_p50_us", Host.median (List.map (fun r -> r.stable_lag_p50_us) rs));
    ("orderer.stable_lag_p99_us", Host.median (List.map (fun r -> r.stable_lag_p99_us) rs));
    ("orderer.push_host_ns_per_record", Drives.ns_per units.push);
    ("shard.disk_ops_per_op", per_op (d (fun s -> s.disk_ops)));
    ("shard.disk_bytes_per_op", per_op (d (fun s -> s.disk_bytes)));
    ("shard.disk_queue_p99_us", p99 (fun g -> g.disk_queue) rs /. 1e3);
    ("shard.staged_p99", p99 (fun g -> g.staged) rs);
    ("shard.mirror_lag_p99", p99 (fun g -> g.mirror_lag) rs);
    ( "shard.slow_read_frac",
      if reads = 0 then 0.0
      else float_of_int (sum (fun r -> r.slow_reads) rs) /. float_of_int reads );
    ("client.append_p50_us", pct (fun r -> r.append_lat) 50.0);
    ("client.append_p999_us", pct (fun r -> r.append_lat) 99.9);
    ("client.read_p50_us", pct (fun r -> r.read_lat) 50.0);
    ("client.read_p999_us", pct (fun r -> r.read_lat) 99.9);
    ("client.inflight_p99", p99 (fun g -> g.client_inflight) rs);
    ("reconfig.detect_ms", phase (fun _ t -> ms t.Erwin_common.detect));
    ("reconfig.seal_us", phase (fun _ t -> us t.Erwin_common.seal));
    ("reconfig.flush_us", phase (fun _ t -> us t.Erwin_common.flush));
    ("reconfig.new_view_ms", phase (fun _ t -> ms t.Erwin_common.new_view));
    ("reconfig.total_ms", phase (fun _ t -> ms t.Erwin_common.total));
    ("reconfig.stalled_appends", phase (fun r _ -> float_of_int r.stalled));
    ("reconfig.stall_max_ms", phase (fun r _ -> ms r.stall_max));
    ("host.ns_per_op", host_ns);
    ("host.ref_ns", ref_ns);
    ("host.unattributed_ns_per_op", host_ns -. attributed);
    ("trace.overhead_frac", overhead);
  ]
  |> List.map (fun (name, v) -> (name, finite_or_0 v, List.assoc name names))
