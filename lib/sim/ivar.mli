(** Write-once synchronization cells for simulation fibers.

    An ivar starts empty, can be filled exactly once, and any number of
    fibers may block on it. Filling wakes every waiter. This is the basic
    building block for RPC completions and joins. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** [fill t v] sets the value. Raises [Invalid_argument] if already full. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns [false] instead of raising when already full. *)

val is_full : 'a t -> bool

val peek : 'a t -> 'a option

val read : 'a t -> 'a
(** [read t] returns the value, blocking the calling fiber until filled. *)

val read_timeout : 'a t -> timeout:Engine.time -> 'a option
(** [read_timeout t ~timeout] is [Some v] if [t] is filled within [timeout]
    simulated nanoseconds (including already-filled), else [None]. *)

val join_all : 'a t list -> 'a list
(** [join_all ts] waits for every ivar and returns their values in order:
    the join for fan-outs whose members each run a multi-step protocol,
    which leaves Corfu's hole-filling read as its one user. A fan-out of
    single RPC requests, retried or hedged or not, is an [Rpc.group]
    instead. *)
