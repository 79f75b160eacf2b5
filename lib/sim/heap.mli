(** Array-backed binary min-heap.

    Used as the far-future overflow queue of the simulation {!Engine}'s
    timer wheel, and available to any other component that needs a
    priority queue. Elements are ordered by the
    comparison function supplied at creation; ties are resolved by it as
    well, so callers that need a stable order must encode a sequence number
    in their elements. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** [pop t] removes and returns the minimum element, if any. The backing
    array retains no reference to popped elements (beyond, transiently,
    the last element popped from a heap that became empty). *)

val peek : 'a t -> 'a option

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** [to_list t] is the heap's contents in unspecified order. *)
