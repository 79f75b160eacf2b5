(** One int per log id: the per-log counters of the multi-log fabric.

    The paper keeps one last-ordered-gp and one stable-gp per log
    (sections 4.2, 5.6); with tenant logs ({!Logid}) every such counter,
    and every cursor built on it, becomes one of these tables. Log 0 and
    the tenant logs are looked up the same way: a flat [int array]
    indexed by log id, grown on demand.

    A table is created with a default rule, [default log], that a log
    reads as until it is first set ([Logid.base ~log] for frontiers, [0]
    for counts). Log 0, the root log, is {e held} from creation at
    [default 0]; any other log is held once set. {!fold} visits exactly
    the held logs, so a frontier list built from it names the root log
    and every tenant log that ever moved, and nothing else. *)

type t

val create : default:(int -> int) -> t
(** A table holding only log 0, at [default 0]. *)

val get : t -> int -> int
(** The log's value, or [default log] when it is not held. *)

val set : t -> int -> int -> unit
(** Sets (and holds) the log's value. Raises [Invalid_argument] on a
    log id outside [[0, Logid.max_logs)]. *)

val add : t -> int -> int -> unit
(** [add t log d] sets the log's value to [get t log + d] (one call on
    the per-entry path of a counter). *)

val merge : t -> int -> int -> bool
(** [merge t log v] max-merges [v] into the log's value: it sets [v]
    when the log is not held yet or [v] is above its value, and returns
    whether it did. *)

val reset : t -> unit
(** Back to the created state: log 0 held at [default 0] (evaluated
    now), no other log held. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] folds [f log value] over the held logs in ascending
    log order. *)

val to_list : t -> int list
(** The held values in ascending log order. For a frontier table these
    are packed positions, each naming its own log. *)

val set_packed : t -> int list -> unit
(** Sets each packed position of the list as its own log's value
    ({!Logid.log_of}): on a fresh or {!reset} frontier table, the
    inverse of {!to_list}. *)
