(** Background ordering (section 4.3), pipelined.

    The orderer takes the leader's unordered entries, assigns them global
    positions starting at the leader's last-ordered-gp, pushes them to the
    shards (whole records for Erwin-m, metadata bindings plus the
    position-to-shard map for Erwin-st), garbage collects the batch on
    every replica, and only then advances stable-gp — the order the
    correctness argument of section 4.5 depends on.

    Those stages are pipelined across batches: a dispatcher fiber claims
    batch N+1 from the leader's log and fires its per-shard pushes while
    batch N's follower GC and stable broadcast are still in flight, and a
    committer fiber retires batches strictly in dispatch order so
    stable-gp never advances out of order. In-flight batches are bounded
    by [Config.pipeline_depth]; batch size adapts between
    [Config.min_batch] and [Config.max_batch] ({!Adaptive}). At
    [pipeline_depth = 1] with [min_batch = max_batch] the same loop runs
    one fixed-size batch at a time, with no overlap between batches.

    Every log goes through one cursor path: the ordering frontier is a
    {!Log_table} with one cursor per log, and each entry draws the next
    position of its own log's cursor (dense positions for log 0, packed
    ones for each tenant log of the multi-log fabric, {!Logid}).

    The dispatcher reads the leader's log directly (the paper does this
    with RDMA so the leader's CPU is not consumed) and quiesces while a
    view change is running. *)

open Ll_net

val push :
  Erwin_common.t ->
  (Proto.req, Proto.resp) Rpc.endpoint ->
  truncate:int list ->
  (int * Types.entry) list ->
  unit
(** Pushes positioned entries to the shards and waits for all of them to
    acknowledge (replication included). Each packed frontier in
    [truncate] (at most one per log) makes every shard first logically
    overwrite its own log's tail from that position — the recovery flush
    path (section 4.5) — without touching another log's positions. The
    truncation travels in the same message as the rebinding slots, so
    the unbind/rebind pair is atomic per shard. Used by {!Reconfig}. *)

val push_batch :
  Erwin_common.t ->
  (Proto.req, Proto.resp) Rpc.endpoint ->
  ?truncate_logs:int list ->
  truncate_from:int option ->
  (int * Types.entry) list ->
  unit
(** {!push} with [truncate] split as [truncate_from] (log 0's frontier)
    followed by [truncate_logs]. *)

val assign_positions :
  cursors:Log_table.t ->
  Types.entry array ->
  (int * Types.entry) array * int list
(** Assigns positions to a batch in entry order: each entry takes the
    next position of its own log's cursor in [cursors], which advances.
    Returns the positioned slots and the cursor of log 0 and of every
    other log the batch advanced, in log order. Shared by the orderer
    and the recovery flush ({!Reconfig}). *)

val broadcast_stable :
  Erwin_common.t -> (Proto.req, Proto.resp) Rpc.endpoint -> int -> unit
(** Advances the stable frontier of the packed bound's log in the
    cluster's mirror (probe and [on_stable] hook included, when it
    rises) and notifies every shard. *)

(** Batch-size controller for the pipelined orderer: grows the batch while
    claims come out full with backlog remaining, shrinks it once the
    sequencing log drains. Exposed for unit testing. *)
module Adaptive : sig
  val next : Config.t -> cur:int -> claimed:int -> backlog:int -> int
  (** [next cfg ~cur ~claimed ~backlog] is the batch size to use after a
      claim that returned [claimed] entries and left [backlog] live
      unclaimed entries behind. Clamped to
      [[min min_batch max_batch, max_batch]], so with [min_batch =
      max_batch] it is always [max_batch]. *)
end

val run :
  Erwin_common.t ->
  (Proto.req, Proto.resp) Rpc.endpoint ->
  push:((int * Types.entry) array -> 'p) ->
  join:('p -> unit) ->
  unit
(** [run cluster ep ~push ~join] spawns the background-ordering fibers
    over a data layer given as two values, built once. [push slots]
    sends one batch's positioned entries to the data layer without
    waiting and returns a handle; the committer calls [join] on that
    handle before it GCs the batch and advances stable-gp. Batches are
    pushed in position order, up to [Config.pipeline_depth] at once.
    [ep] broadcasts stable-gp to the cluster's shards (none when the
    data layer lives elsewhere, as for Erwin-m over Kafka). *)

val start : Erwin_common.t -> unit
(** {!run} over the cluster's shards: [push] is the per-shard push of
    {!push}, its handle one [Rpc.group], [join] that group's join. Also
    makes the orderer's endpoint the shards' read-demand sink. *)

val wait_idle : Erwin_common.t -> unit
(** Blocks until no ordering batch is in flight (reconfiguration uses this
    to serialize the recovery flush against normal pushes). *)
