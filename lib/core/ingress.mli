(** Weighted-fair ingress scheduling for sequencing replicas.

    The multi-log fabric (DESIGN.md section 16) multiplexes thousands of
    tenant logs over one cluster, so one aggressive tenant can no longer
    be allowed to own a replica's FIFO ingress: this module installs an
    {!Ll_net.Rpc.set_ingress} scheduler that (a) sheds arrivals exceeding
    a per-tenant queue bound with an immediate failed append (no service
    time spent), and (b) serves the admitted backlog
    by deficit round robin so service capacity divides by configured
    weight ({!Config.ingress}) instead of arrival rate.

    Data-plane appends ([Sr_append], one entry or a batch) are scheduled
    per tenant; every other request is one FIFO class served ahead of the
    tenant queues by the same drain fiber, so the replica still serves
    one request at a time. Installed only when [fair_ingress] is set —
    with it [None] no scheduler exists and the replica keeps its FIFO
    ingress, byte-identically. *)

type t

val install :
  Config.ingress ->
  view:(unit -> int) ->
  (Proto.req, Proto.resp) Ll_net.Rpc.endpoint ->
  t
(** Attaches the scheduler, with the given weights, quantum and queue
    bound, to a replica endpoint and spawns its DRR drain fiber. [view]
    reads the replica's current view for shed replies (a shed looks to
    the client like any failed append — its ordinary retry path absorbs
    it). *)

type stats = { st_admitted : int; st_shed : int; st_queued : int }

val stats : t -> log:int -> stats
(** Cumulative admitted/shed counters and current queue depth for one
    tenant; zeros for a tenant never seen. *)
