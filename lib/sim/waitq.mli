(** Condition-variable-style wait queues.

    A [Waitq.t] lets fibers block until some predicate over shared mutable
    state becomes true; whoever mutates that state calls {!broadcast}.
    Used for slow-path reads ("wait until stable-gp >= p"), ring-buffer
    backpressure, and similar protocol waits. *)

type t

val create : unit -> t

val await : t -> (unit -> bool) -> unit
(** [await t pred] returns immediately if [pred ()]; otherwise blocks until
    a {!broadcast} after which [pred ()] is true (re-blocking as needed). *)

val await_timeout : t -> timeout:Engine.time -> (unit -> bool) -> bool
(** Like {!await} but gives up after [timeout] ns; returns whether the
    predicate held on exit. *)

val broadcast : t -> unit
(** Wake all current waiters so they re-check their predicates. *)

(** {1 Waiting with a value}

    The same queue parks receivers that are woken with a value, one at a
    time, as {!Mailbox} does. A queue serves one kind or the other. *)

val park : t -> 'a Engine.waker -> unit
(** Parks a waker at the tail. Dropping waiters that have already fired
    (timed out) happens here, as it does for {!await_timeout}. *)

val wake_one : t -> 'a -> bool
(** Wakes the longest-parked waiter that has not fired with the value;
    [false] when none is left. *)

val waiters : t -> int
(** Parked waiters, counting timed-out waiters not yet dropped: a waiter
    whose {!await_timeout} expired is dropped by a later park or
    broadcast, so a queue's count stays within twice its live waiters
    plus a small constant. *)
