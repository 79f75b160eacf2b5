(** Append-only in-memory log indexed by absolute position.

    Supports a trimmed prefix (garbage collection) and truncation of the
    tail (needed by shards during view-change flushes, section 4.5: shards
    must be able to logically overwrite entries at the tail). *)

type 'a t

val create : unit -> 'a t

val append : 'a t -> 'a -> int
(** Appends and returns the absolute position of the new entry. *)

val set : 'a t -> int -> 'a -> unit
(** [set t pos v] writes [v] at absolute position [pos] (sparse positions
    are allowed — a shard holds only its own slice of the global position
    space). Existing positions are overwritten (tail overwrite during
    recovery). A position below {!first} is trimmed already, so the
    write is dropped. *)

val get : 'a t -> int -> 'a option
(** [None] if trimmed away or beyond the tail. *)

val mem : 'a t -> int -> bool
(** Whether {!get} would find an entry; allocates nothing. *)

val find : 'a t -> int -> 'a
(** The entry at a position, with no option box.
    @raise Not_found where {!get} returns [None]. *)

val length : 'a t -> int
(** Tail position: total entries ever appended minus nothing — i.e. the
    next position to be written. *)

val first : 'a t -> int
(** Lowest untrimmed position. *)

val remove : 'a t -> int -> unit
(** [remove t pos] deletes the single entry at [pos] (no-op if absent),
    leaving [first]/[length] untouched. The view-change path uses this
    to unbind one log's tail positions without disturbing interleaved
    positions of other logs. *)

val remove_range : 'a t -> from:int -> upto:int -> unit
(** [remove_range t ~from ~upto] deletes every entry at positions in
    [\[from, upto)], leaving [first]/[length] untouched. Like {!truncate},
    it visits only the chunks that exist in the range. *)

val truncate : 'a t -> int -> unit
(** [truncate t n] drops entries at positions [>= n]. Whole chunks of
    positions go at once, so the cost is bounded by the chunks the range
    touches, not by its width (packed multi-log positions are sparse). *)

val trim : 'a t -> int -> unit
(** [trim t n] discards entries at positions [< n]. *)

val iter : ?upto:int -> 'a t -> from:int -> (int -> 'a -> unit) -> unit
(** [iter t ~from f] applies [f] to the entries at positions [>= from]
    (and [< upto], when given), in position order. *)

val to_list : 'a t -> (int * 'a) list
(** All untrimmed entries with their positions, in order. *)
