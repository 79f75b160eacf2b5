(** Shared cluster state for the Erwin systems.

    A cluster owns the fabric, the sequencing replicas (leader first), the
    shards, the mini-ZooKeeper control plane, and the pieces of global
    bookkeeping (current view, stable-gp mirror, reconfiguration timings)
    that the orderer, the controller, the clients, and the benchmarks all
    consult. *)

open Ll_sim
open Ll_net
open Ll_control

type mode = M | St

(** Reconfiguration phase durations, figure 17(b). *)
type reconfig_timings = {
  detect : Engine.time;  (** crash to controller notification *)
  seal : Engine.time;
  flush : Engine.time;
  new_view : Engine.time;  (** ZooKeeper config write + view install *)
  total : Engine.time;
}

(** Background-ordering observability (fed by {!Orderer}): stable-gp lag
    per batch (claim to stable, ns) and the largest batch claimed. The
    batch count and mean size live on {!t} ([batches],
    [batched_entries]). *)
type orderer_metrics = {
  stable_lag : Stats.Reservoir.t;
  mutable largest_batch : int;
}

(** A per-process, per-log append batcher (group commit), held as closures
    so the implementing module ({!Batcher}) can depend on this one. *)
type batch_submit = {
  submit_entry : track:bool -> Types.entry -> [ `Ok | `Fail of int ];
      (** Enqueue one append into the open linger batch and block until the
          batch's fan-out resolves. [`Fail view] carries the view the batch
          was attempted in so the caller can wait out the view change. *)
  batch_stats : unit -> int * int;  (** (flushes, records batched) so far *)
}

type t = {
  cfg : Config.t;
  mode : mode;
  fabric : (Proto.req, Proto.resp) Rpc.msg Fabric.t;
  zk : Zookeeper.t;
  mutable view : int;
  mutable replicas : Seq_replica.t list;  (** live members, leader first *)
  mutable shards : Shard.t list;
  mutable stable_gp : int;
  mutable reconfiguring : bool;
  view_changed : Waitq.t;
  mutable next_client : int;
  mutable crash_time : Engine.time option;
      (** set by fault-injecting benches so detection time can be derived *)
  mutable reconfig_log : reconfig_timings list;
  order_idle : Waitq.t;
  (* background-ordering batch statistics (figure 11's right axis) *)
  mutable batches : int;
  mutable batched_entries : int;
  mutable shard_index : Shard.t array;  (** shards keyed by shard id *)
  mutable inflight_batches : int;  (** ordering batches pushed, not stable *)
  mutable cur_batch : int;  (** adaptive ordering batch size *)
  mutable order_resync : bool;
      (** set when an in-flight batch is discarded (seal/view change);
          the orderer re-reads the leader's state once drained *)
  metrics : orderer_metrics;
  append_batchers : (int, batch_submit) Hashtbl.t;
      (** one per log, keyed by log id, each created by {!Batcher.get} at
          the log's first append when [cfg.linger] is set *)
  demand : Log_table.t;
      (** read-demand cursors, one per log: shards asked for binding up
          to this packed position (exclusive); max-merged by
          [Sr_order_demand], consumed by the orderer when
          [cfg.read_demand] *)
  stable_gps : (int, int) Hashtbl.t;
      (** the tenant logs' stable frontiers (packed positions, keyed by
          log id); log 0's is [stable_gp]. Access through
          {!stable_for}/{!note_stable_log}. *)
  order_wake : Waitq.t;
      (** broadcast when a new demand arrives so the orderer cuts its idle
          sleep short instead of waiting out the lazy cadence *)
  mutable orderer_node : Fabric.node_id option;
      (** the background orderer's fabric node, once started — the target
          shards send [Sr_order_demand] to *)
  mutable on_stable : (int -> unit) option;
      (** called by the orderer whenever a log's stable frontier
          advances, with the new packed bound — the subscription
          manager's push trigger (it serves log 0 and ignores the
          rest). [None] (and never invoked) unless a manager is
          attached, so the hook is free for paper-fidelity runs. *)
}

val create : cfg:Config.t -> mode:mode -> t
(** Builds fabric, ZooKeeper, [cfg.seq_replica_count] sequencing replicas
    and [cfg.nshards] shards, and registers replica sessions with ZK.
    Must run inside {!Ll_sim.Engine.run}. *)

val leader : t -> Seq_replica.t
val followers : t -> Seq_replica.t list

val shard_by_id : t -> int -> Shard.t
(** O(1) shard lookup by id (ids are dense, creation-ordered). *)

val shard_of_position : t -> int -> Shard.t
(** Erwin-m's deterministic placement: position [p] lives on shard
    [p mod nshards] (section 4.3). Packed multi-log positions hash the
    whole packed value, spreading each tenant across all shards. *)

(** {2 Per-log frontiers (multi-log fabric)} *)

val stable_for : t -> log:int -> int
(** The client-visible stable frontier of [log], as a packed position
    ([Logid.base ~log] before its first advance). *)

val note_stable_log : t -> int -> bool
(** Max-merge a (packed) stable bound into its log's frontier — the
    multi-log generalization of the [stable_gp] piggyback merge.
    Returns whether the frontier rose. *)

val demand_for : t -> log:int -> int
(** The pending read-demand cursor of [log] (packed, exclusive). *)

val note_demand : t -> int -> unit
(** Max-merge a (packed) demand position into its log's cursor. *)

val add_shard : t -> Shard.t
(** Spin up and register one more shard (Erwin-st's seamless addition,
    section 6.9). *)

val fresh_client_id : t -> int

val avg_batch : t -> float
(** Mean background-ordering batch size so far. *)

val new_endpoint : t -> name:string -> (Proto.req, Proto.resp) Rpc.endpoint
(** A fresh fabric node + endpoint (for clients and the controller). *)

val seq_group_calls :
  t -> (Proto.req, Proto.resp) Rpc.group -> Proto.req -> unit
(** Sends one append request to every current sequencing replica in
    parallel, in replica order, as the group's next members — the
    coordination-free write of section 4.1. *)

val append_ok : Proto.resp -> bool
(** The reply is [R_append { ok = true }]. *)

val seq_append :
  t -> (Proto.req, Proto.resp) Rpc.endpoint -> Proto.req -> bool
(** The write of section 4.1 and its 1-RTT join: {!seq_group_calls} on a
    fresh group, then one wait with the append timeout. [true] when every
    replica acked. Shared by the per-record and batched paths. *)

val crash_replica : t -> Seq_replica.t -> unit
(** Fault injection: crashes the replica's node and stamps [crash_time]. *)
