open Ll_sim
open Ll_net

type disk_kind = Sata | Nvme

type ingress = { weights : (int * int) list; quantum : int; queue_bound : int }

type t = {
  seq_replica_count : int;
  nshards : int;
  shard_backup_count : int;
  seq_capacity : int;
  order_interval : Engine.time;
  max_batch : int;
  min_batch : int;
  pipeline_depth : int;
  seq_base_ns : int;
  seq_per_byte_ns : float;
  shard_base_ns : int;
  shard_disk : disk_kind;
  dirty_limit_bytes : int;
  data_wait_timeout : Engine.time;
  append_timeout : Engine.time;
  linger : Engine.time option;
  read_demand : bool;
  replica_reads : bool;
  subscriptions : bool;
  hedge_floor : Engine.time option;
  outlier_detection : bool;
  fair_ingress : ingress option;
  link : Fabric.link;
  rpc_overhead : Engine.time;
  debug_no_rid_pinning : bool;
      (** Intentional-bug gate for the checker: when true, Erwin-st clients
          re-pick a shard on append retry instead of pinning the rid to one
          shard. Loses acknowledged records under message loss — kept as a
          known-bad configuration to validate that [lazylog_check] detects
          it. Never enable outside the checker. *)
}

let default_linger = Engine.us 20
let default_hedge_floor = Engine.us 100
let default_ingress = { weights = []; quantum = 4_096; queue_bound = 256 }

let default =
  {
    seq_replica_count = 3;
    nshards = 1;
    shard_backup_count = 2;
    seq_capacity = 1 lsl 16;
    order_interval = Engine.us 20;
    max_batch = 8192;
    min_batch = 64;
    pipeline_depth = 4;
    (* ~1.2 M small-record appends/s and ~1.3 M metadata appends/s per
       replica; ~330 K/s at 4 KB (records traverse the replica's 25 Gb NIC
       twice: ingest + background push), flattening for large records
       (paper sections 6.5, 6.6). *)
    seq_base_ns = 750;
    seq_per_byte_ns = 0.55;
    shard_base_ns = 1_500;
    shard_disk = Sata;
    dirty_limit_bytes = 8 * 1024 * 1024;
    data_wait_timeout = Engine.ms 5;
    append_timeout = Engine.ms 20;
    (* Group commit defaults off: the paper-fidelity benches (figs 6-18)
       measure the per-record 1-RTT path byte-for-byte unchanged. *)
    linger = None;
    (* Demand-driven read path defaults off: the paper-fidelity benches
       measure the purely lazy cadence byte-for-byte unchanged. *)
    read_demand = false;
    replica_reads = false;
    (* Streaming delivery defaults off: with no subscription manager
       started and the knob off, no push-path code runs and the
       paper-fidelity figures stay byte-identical. *)
    subscriptions = false;
    (* Gray-failure mitigations default off: knob-off runs draw nothing
       extra from the rng and schedule nothing, so figs 6-18 stay
       byte-identical. *)
    hedge_floor = None;
    outlier_detection = false;
    (* Fair ingress defaults off: no ingress scheduler is installed, so
       figs 6-18 stay byte-identical. *)
    fair_ingress = None;
    link = Fabric.default_link;
    rpc_overhead = Engine.ns 500;
    debug_no_rid_pinning = false;
  }

let with_shards ?backups t n =
  {
    t with
    nshards = n;
    shard_backup_count =
      (match backups with Some b -> b | None -> t.shard_backup_count);
  }

let scaled_cluster t = { t with shard_disk = Nvme }
