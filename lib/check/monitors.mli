(** Always-on invariant monitors over the {!Lazylog.Probe} event stream.

    One monitor instance observes one simulated cluster and incrementally
    checks the DESIGN.md section 5 safety invariants {e during} the run:

    - {b durability}: an acknowledged append is never lost — audited at
      every crash point against the surviving sequencing replicas'
      logs/duplicate filters, and continuously against Erwin-st no-op
      resolutions (an acked rid must never be no-op'ed);
    - {b real-time-order}: if append A was acknowledged before append B
      was invoked, A's position precedes B's (O(1) per exposed position:
      exposures arrive in position order, so a max-invocation-time
      frontier suffices);
    - {b stable-prefix}: positions below the stable frontier are never
      rebound or truncated;
    - {b read-agreement}: every read returns the record bound at that
      position, from the owning shard, and only below the stable prefix
      (sound because {!Lazylog.Probe.Stable_advanced} is emitted before
      any shard learns the new bound);
    - {b view-safety}: per-replica installed views are strictly
      increasing and the stable prefix never regresses;
    - {b exactly-once}: every registered subscription receives each
      client record bound below the stable prefix exactly once, in
      position order (duplicates, skips over non-no-op positions, rid
      mismatches and beyond-stable deliveries are flagged as they
      happen; records never delivered at all are caught by
      {!finalize_delivery} once the run drains).

    Under the multi-log fabric every position-scoped invariant
    (real-time order, stable prefix, read agreement, truncation safety)
    is checked per tenant log: packed positions carry their log id, and
    each log keeps its own stable frontier and real-time-order frontier —
    cross-tenant ordering is deliberately unconstrained.

    Handlers are synchronous and allocation-light; a monitored run is a
    few percent slower than a bare one. *)

open Lazylog

type violation = {
  invariant : string;  (** e.g. ["durability"], ["real-time-order"] *)
  detail : string;
  at_time : Ll_sim.Engine.time;
  at_event : int;  (** {!Ll_sim.Engine.events_executed} at detection *)
}

val pp_violation : Format.formatter -> violation -> unit

type t

val install : ?on_violation:(violation -> unit) -> Erwin_common.t -> t
(** Subscribe a fresh monitor to the domain's probe stream (the caller
    decides when to [Probe.reset]). [on_violation] fires synchronously at
    the detection point — the checker uses it to stop the run at the
    first violation so [at_event] marks the earliest detection. *)

val violations : t -> violation list
(** In detection order. *)

val first : t -> violation option

(** What a run exercised, and, summed field by field
    ({!add_coverage}), what a sweep exercised: the one record behind the
    checker's per-run lines and its coverage summary. The monitor counts
    into it as events arrive; {!Checker.run_one} fills in the fields
    that come from outside the probe stream ([runs] to [events], and the
    rpc counters). *)
type coverage = {
  mutable runs : int;  (** 1 per run *)
  mutable violations : int;  (** runs that violated an invariant *)
  mutable events : int;  (** scheduler events executed *)
  mutable acked : int;  (** distinct appends acknowledged *)
  mutable reads : int;  (** records served to readers *)
  mutable crashes : int;
  mutable view_installs : int;
  mutable stable : int;  (** log 0's final stable prefix length *)
  mutable delivered : int;  (** subscription records delivered, deduped *)
  mutable gray_faults : int;  (** gray (fail-slow) fault windows injected *)
  mutable outliers_removed : int;  (** replicas evicted as outliers *)
  mutable tenant_logs : int;  (** tenant logs whose stable prefix advanced *)
  mutable ingress_shed : int;  (** appends shed by fair-ingress admission *)
  mutable retries : int;  (** rpc retries *)
  mutable hedges_won : int;  (** hedged reads answered by the hedge *)
}

val empty_coverage : unit -> coverage
(** All zeros. *)

val add_coverage : coverage -> coverage -> unit
(** [add_coverage into c] adds each field of [c] into [into]. *)

val coverage : t -> coverage
(** The monitor's live record (not a copy). *)

val subs_caught_up : t -> bool
(** Every registered subscription has consumed every client record bound
    below the current stable prefix (trailing no-op fillers excluded).
    The checker's drain loop polls this before finalizing. *)

val finalize_delivery : t -> unit
(** End-of-run completeness audit: flags any stable client record a
    subscription registered for but never received. Call once, after the
    workload and delivery have drained. *)

val progress_pending : t -> bool
(** True while some acknowledged record has not yet been bound on any
    shard (or nothing has stabilized despite acks) — i.e. calling
    {!finalize_progress} right now would flag a violation. The checker's
    drain loop polls this so it can wait out in-flight retries (an
    orderer push lost to a fault window redrives only after its RPC
    timeout) instead of auditing a merely-quiescent system. *)

val finalize_progress : t -> unit
(** End-of-run progress audit for gray-failure runs: every acknowledged
    record must be bound on some shard, the stable prefix must have
    advanced if anything was acked, and no view change may still be in
    flight — a fail-slow fault may slow the system but must never wedge
    it. Call once the post-horizon drain has settled (stable no longer
    moving, no reconfiguration in flight) or its deadline has passed;
    before that, in-flight bindings read as false positives. *)
