(** A sequencing-layer replica (sections 4.1–4.3, 4.5).

    Replicas are coordination-free: each one independently appends incoming
    entries to its local log and acks the client directly. The leader's log
    order is only used later by the background {!Orderer}; on leader
    failure any survivor's log can recover the order, because every log is
    a valid linearization of acknowledged appends.

    A replica participates in views: it rejects appends (and GC) when
    sealed or when the client's view is stale, and is reset into new views
    by the reconfiguration controller. *)

open Ll_net

type t

val create :
  cfg:Config.t ->
  fabric:(Proto.req, Proto.resp) Rpc.msg Fabric.t ->
  name:string ->
  t
(** Creates the replica's fabric node and endpoint, installs its handler,
    and charges [cfg.seq_base_ns + size * cfg.seq_per_byte_ns] of CPU per
    incoming request. An [Sr_append] of n entries adds [50 * (n - 1)] ns,
    so one entry costs what a lone record always has. *)

val node : t -> (Proto.req, Proto.resp) Rpc.msg Fabric.node
val endpoint : t -> (Proto.req, Proto.resp) Rpc.endpoint
val node_id : t -> Fabric.node_id
val name : t -> string

val log : t -> Seq_log.t
(** Direct access for the colocated background orderer (the paper uses
    RDMA reads of the leader's ring buffer for exactly this, section 5.6). *)

val view : t -> int
val is_sealed : t -> bool

val apply_gc :
  t -> frontiers:int list -> slots:(int * Types.Rid.t) list -> unit
(** Used by the orderer on every replica (on the followers through the
    modelled RDMA writes of section 5.6): drops the ordered [slots] and
    sets the last-ordered-gp of each log in [frontiers] (packed
    positions, one per log) to that value. *)

val ingress : t -> Ingress.t option
(** The weighted-fair ingress scheduler, present iff the replica was
    created with [fair_ingress] set (tests and the tenants bench read its
    per-tenant admit/shed counters). *)

val sub_cursor : t -> string -> (int * int) option
(** The replicated [(epoch, cursor)] of a named subscription, as last
    max-merged from the subscription manager's [St_cursor_sync] stream
    (tests and recovery diagnostics; the manager itself recovers via
    [St_cursor_fetch]). *)
