(** An Erwin storage shard: one primary plus backups.

    The same service implements both deployment styles:

    - {b Erwin-m} (section 4): the shard is a black box that only sees
      background [Msh_push] batches of already-positioned records; the
      primary persists them and replicates to its backups before acking
      the orderer.
    - {b Erwin-st} (section 5): clients additionally write record data
      directly to {e every} replica ([Ssh_data_write], staged without
      coordination, 1 RTT); background [Ssh_order] messages later bind
      staged records to global positions, write the position-to-shard map
      chunk, resolve missing records to no-ops after a timeout
      (section 5.4), and replicate bindings to the backups.

    Reads are gated on the shard's stable-gp: a read of position [p] waits
    until [p < stable-gp] (the slow path of section 4.4).

    Each replica serves a request that cannot suspend on its endpoint's
    bare path, with no fiber: a data write the journal has room for,
    stable and trim notices, a read its stable mirror covers, and on a
    backup the replicated bindings and pushes the store has room for.
    The rest (the primary's push and order, which join replication, and
    any read or write that must wait) run the same handler on a fiber. *)

open Ll_sim
open Ll_net
open Ll_storage

type t

val create :
  cfg:Config.t ->
  fabric:(Proto.req, Proto.resp) Rpc.msg Fabric.t ->
  shard_id:int ->
  t
(** Builds primary and [cfg.shard_backup_count] backup nodes, each with its
    own disk of kind [cfg.shard_disk]. *)

val shard_id : t -> int
val primary_id : t -> Fabric.node_id

val replica_ids : t -> Fabric.node_id list
(** Primary first — Erwin-st clients write data to all of these. *)

val stable_gp : t -> int
(** The primary's stable mirror for log 0. Backups keep their own,
    possibly lagging, mirror for replica reads. *)

val set_demand_target : t -> Fabric.node_id option -> unit
(** Where the primary sends [Sr_order_demand] when a read parks beyond
    stable-gp (the background orderer's endpoint); [None] disables demand
    signalling. Only consulted when [cfg.read_demand]. *)

val read_local : t -> int -> Types.record option
(** Direct store lookup (checker/test use; no simulated cost). *)

val bound_positions : t -> (int * Types.record) list
(** Every bound (position, record) on the primary (checker use). *)

val staged_count : t -> int
(** Unbound staged records on the primary (orphan-scrubbing tests). *)

val replica_disk : t -> int -> Disk.t
(** The [i]-th replica's device, primary first ([i] taken mod the replica
    count) — the injection point for {!Ll_storage.Disk.set_fail_slow}
    gray-failure modes. *)

val replace_backup : t -> index:int -> unit
(** Replaces the [index]-th backup with a freshly provisioned replica,
    bulk-copying ordered and staged state from the primary (section 5.4's
    shard-internal failure handling). Blocking; safe to run while pushes
    continue (a delta pass after the swap catches the race). *)

val backup_ids : t -> Fabric.node_id list

val start_scrubber : t -> age:Engine.time -> every:Engine.time -> unit
(** Periodically drops staged records older than [age] with no binding —
    the orphan GC of section 5.4. *)
