(** Observation hooks feeding the checker's invariant monitors.

    The protocol code emits small structured events at the points the
    DESIGN.md section 5 invariants talk about: append invocation and
    acknowledgement, view install, stable-prefix advance,
    shard position binding, reads, crashes. [lib/check] subscribes during
    a checked run and maintains incremental invariant state; production
    and benchmark runs register no subscriber, so the hooks cost one
    domain-local load per site.

    Subscribers are domain-local (like the simulation engine itself): a
    parallel seed sweep runs one independently-monitored simulation per
    domain. *)

type event =
  | Append_invoked of { rid : Types.Rid.t }
      (** A client began an append of [rid] (first attempt, not retries). *)
  | Append_acked of { rid : Types.Rid.t }
      (** The client observed a successful acknowledgement for [rid]. *)
  | View_installed of { replica : int; view : int }
  | Stable_advanced of { gp : int }
      (** The orderer advanced the stable prefix: positions [< gp] are
          stable. Emitted before any shard learns of it, so a monitor's
          stable bound is always >= every shard's. *)
  | Shard_stored of { shard : int; pos : int; rid : Types.Rid.t }
      (** Shard [shard] bound global position [pos] to [rid] (record
          stored, or a no-op filled in — then [rid] is the no-op rid). *)
  | Shard_nooped of { shard : int; pos : int; rid : Types.Rid.t }
      (** Erwin-st: the binding of [pos] to [rid] resolved to a no-op
          because the record never arrived ([rid] here is the {e intended}
          record's rid, not the no-op rid). An acknowledged rid must never
          be no-op'ed — the invariant that catches lost acked records. *)
  | Shard_truncated of { shard : int; from : int }
      (** View change: shard dropped bindings at positions [>= from]. *)
  | Read_served of { shard : int; pos : int; rid : Types.Rid.t }
  | Crashed of { node : int }
      (** A cluster node (fabric node id) crashed. Emitted {e after} the
          fabric processed the crash, so inspecting the cluster from the
          handler sees the post-crash survivor set. *)
  | Sub_registered of { name : string; from : int }
      (** A subscriber attached subscription [name] for the first time;
          the exactly-once monitor expects every position [>= from] to be
          delivered to it exactly once, in order. Emitted only on the
          first attach — a restart of the same consumer re-attaches
          without re-registering. *)
  | Sub_delivered of { name : string; pos : int; rid : Types.Rid.t }
      (** Subscription [name]'s consumer delivered the record bound at
          [pos] to the application (post-dedup — redelivered duplicates
          are filtered before this fires). *)
  | Gray_fault of { kind : string; until : int }
      (** The fault script injected a gray (fail-slow) fault — "linkfault",
          "stutter" or "degrade" — healing at simulated time [until]. The
          progress monitor uses these to know a hostile window was open. *)
  | Outlier_removed of { node : int }
      (** The latency-outlier monitor evicted sequencing replica [node]
          (fabric node id) via section 5.5 straggler removal. *)
  | Ingress_shed of { replica : int; log : int }
      (** Fair ingress: the tenant's queue was at the bound — the append
          was answered with an immediate failure instead of queueing. *)

type handler = event -> unit

val active : unit -> bool
(** Any subscriber registered on this domain? Emission sites guard with
    this so unmonitored runs never allocate event payloads. *)

val emit : event -> unit

val subscribe : handler -> unit
(** Handlers run synchronously at the emission site, inside the
    simulation; they must not block. *)

val reset : unit -> unit
(** Drop all subscribers on this domain (start of a checked run). *)
