(** The consumer half of streaming delivery: receives [St_push] batches
    from the {!Manager}, dedups by position against its durable delivery
    cursor, consumes in order (no-op fillers advance the cursor without
    reaching the application), and acks cumulatively — the piece that
    turns the manager's at-least-once redelivery into exactly-once
    end-to-end delivery (DESIGN.md section 13). *)

open Ll_net
open Lazylog

type t

val create :
  Erwin_common.t ->
  manager:Fabric.node_id ->
  name:string ->
  ?from:int ->
  ?window:int ->
  ?consume:Ll_sim.Engine.time ->
  ?on_record:(int -> Types.record -> unit) ->
  unit ->
  t
(** Creates the consumer endpoint and attaches subscription [name] at the
    manager, starting from position [from] (default 0). [window]
    (default 64) is the credit grant — the manager never
    has more than this many records pushed-unacknowledged. [consume]
    models per-record application processing time; [on_record] is the
    application callback (positions are gap-free and strictly
    ascending). Blocks until the manager acks the attach — call from a
    fiber inside {!Ll_sim.Engine.run}. *)

val crash : t -> unit
(** Simulated consumer crash: kills the fabric node (losing in-flight
    pushes and acks) while the durable delivery cursor survives. *)

val restart : t -> unit
(** Post-crash restart: fresh endpoint, re-attach at the manager from the
    durable cursor. The manager bumps the subscription epoch and
    redelivers from its own (possibly trailing) cursor; the overlap is
    dedup-filtered. *)

val node_id : t -> Fabric.node_id
val name : t -> string

val epoch : t -> int
(** Last epoch adopted from the manager. *)

val next : t -> int
(** The durable delivery cursor: all positions below it have been
    consumed (or skipped as no-ops). *)

val delivered : t -> int
(** Records handed to the application (no-ops and duplicates excluded). *)

val dup_skipped : t -> int
(** Redelivered records filtered by the position dedup. *)

val max_batch : t -> int
(** Largest push batch received — never exceeds the granted window. *)
