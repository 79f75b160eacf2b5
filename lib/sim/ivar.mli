(** Write-once synchronization cells for simulation fibers.

    An ivar starts empty, can be filled exactly once, and any number of
    fibers may block on it. Filling wakes every waiter. It carries a
    group-commit batch's outcome, a Kafka batch's ack and GC acks. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** [fill t v] sets the value. Raises [Invalid_argument] if already full. *)

val is_full : 'a t -> bool

val read : 'a t -> 'a
(** [read t] returns the value, blocking the calling fiber until filled. *)

val read_timeout : 'a t -> timeout:Engine.time -> 'a option
(** [read_timeout t ~timeout] is [Some v] if [t] is filled within [timeout]
    simulated nanoseconds (including already-filled), else [None]. *)
