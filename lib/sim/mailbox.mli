(** Unbounded FIFO channels between simulation fibers.

    Messages are delivered in send order; multiple receivers are served in
    the order they blocked. This is the delivery surface the simulated
    network writes into. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit
(** Never blocks. *)

val recv : 'a t -> 'a
(** Blocks the calling fiber until a message is available. *)

val recv_timeout : 'a t -> timeout:Engine.time -> 'a option
(** [None] if no message came within [timeout] ns. A receiver that timed
    out is dropped at the next park, so a mailbox's parked receivers
    stay within twice its live ones plus a small constant. *)

val try_recv : 'a t -> 'a option

val take_or_park : 'a t -> 'a Engine.waker -> ('a -> unit) -> unit
(** [take_or_park t w f] pops the head message and passes it to [f], or,
    with none queued, parks [w] as a receiver: the next {!send} then wakes
    [w] with its message. The receive step of an event-driven receiver,
    whose [w] is an {!Engine.callback_waker} running [f]: it allocates
    nothing, where {!recv} costs a fiber a suspension per empty wait. *)

val length : 'a t -> int
(** Number of queued (undelivered) messages. *)

val clear : 'a t -> unit
(** Drops all queued messages (blocked receivers stay blocked). *)
