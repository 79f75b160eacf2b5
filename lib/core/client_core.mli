(** Client-side building blocks shared by Erwin-m and Erwin-st: the
    parallel coordination-free write to all sequencing replicas, view-aware
    retries, tail queries, shard-grouped reads, and the appendSync wait. *)

open Ll_net

type ep = (Proto.req, Proto.resp) Rpc.endpoint

val await_view_after : Erwin_common.t -> int -> unit
(** Parks until the cluster's view exceeds the given one (bounded waits so
    a controller-less deployment still makes progress via retries). *)

val append_entry : Erwin_common.t -> ep -> track:bool -> Types.entry -> unit
(** Appends with retry across views until acknowledged. Each attempt
    writes the entry to every sequencing replica of the current view in
    parallel and succeeds only if all ack in that view within the
    configured timeout (the 1 RTT fast path of section 4.1); with
    [cfg.linger = Some _] it is a submit to the shared {!Batcher}
    instead. *)

val check_tail : ?log:int -> Erwin_common.t -> ep -> int
(** Durable-record count from the sequencing leader (section 4.4),
    retrying across view changes. With [log] (multi-log fabric) the
    count is per-tenant: that log's ordered frontier plus its own live
    unordered entries, as a per-log position. *)

val wait_ordered : Erwin_common.t -> ep -> Types.Rid.t -> int
(** Blocks until a tracked rid is bound; returns its global position. *)

val read_grouped :
  ?rr:int ref ->
  Erwin_common.t -> ep -> shard_of:(int -> Shard.t) -> int list ->
  (int * Types.record) list
(** Reads the given positions, grouping them into one [Sh_read] per shard,
    all sent as one {!Ll_net.Rpc.group} with retry rounds and joined once,
    with no fiber; result is sorted by position. Blocks until every
    position is stable (fast or slow path, section 4.4).

    With [cfg.replica_reads] each shard's read goes to one of its replicas,
    rotating through [rr] (so concurrent readers spread over the replica
    set) and failing over to the remaining replicas; otherwise it goes to
    the primary, with the backups only as a last-resort fallback. Raises
    if no replica of some shard answers — a dropped read is an error, not
    an empty log. Responses' piggybacked stable is max-merged into the
    cluster's stable mirror.

    With [cfg.hedge_floor = Some floor] (and a plan of at least two
    replicas) the plan first demotes latency outliers (replicas scoring
    over 3x the plan's median observed latency move to the back, so
    steady-state reads avoid a fail-slow replica) and the shard's member
    is hedged: a second copy races to the next replica after an adaptive
    deadline (lower median of the plan's observed latency scores, floored
    at [floor]), and the first reply wins. A member that gives up, or
    answers anything but records, walks the rest of its plan after the
    join. *)

val note_piggyback : Erwin_common.t -> int -> unit
(** Max-merge a stable value piggybacked on a read response into the
    cluster's stable mirror. *)

val subscribe_stream :
  Erwin_common.t ->
  ep ->
  manager:Fabric.node_id ->
  name:string ->
  from:int ->
  window:int ->
  int * int
(** Attach (or re-attach) the named subscription at the subscription
    manager on node [manager], delivering pushes to this endpoint; returns
    the subscription's [(epoch, cursor)]. [from] seeds the cursor only
    when the name is new; [window] is this consumer's credit grant.
    Retries until the manager answers. *)

val trim_all : Erwin_common.t -> ep -> upto:int -> bool
