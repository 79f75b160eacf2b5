(** Open-addressing hash table from non-negative ints to ints.

    Keys and values sit interleaved in one flat [int array] ([key; value]
    per slot), probed linearly from an inlined multiplicative hash, with
    backward-shift deletion (no tombstones). Lookups and updates allocate
    nothing and touch one or two cache lines, where a stdlib [Hashtbl]
    chases a heap cell per entry and calls the C hash. The table doubles
    when half full.

    Keys must be non-negative: a negative key is never present, and
    {!slot} rejects it. *)

type t

val home : int -> int -> int
(** [home mask k] is the slot an open-addressing table of [mask + 1]
    slots (a power of two) probes first for key [k]: a multiplicative
    hash that spreads sequential keys, and the high and low halves of a
    packed pair key, over the whole table. Exposed so other flat tables
    keyed by ints (the RPC pending-call table) share it. *)

val create : int -> t
(** [create n] is an empty table sized for about [n] keys. *)

val length : t -> int

val find : t -> int -> default:int -> int
(** The value bound to the key, or [default] when the key is absent. *)

val remove : t -> int -> unit
(** Drops the key's binding; no-op when absent. *)

val fold_keys : t -> (int -> 'a -> 'a) -> 'a -> 'a
(** Folds over the keys present, in slot order. The table must not
    change during the fold: collect keys first to remove them. *)

val clear : t -> unit
(** Drops every binding, keeping the table's capacity. *)

(** {1 Insertion and update}

    [slot] finds or inserts a key and returns the index of its slot, so a
    read-modify-write costs one probe. A slot index is valid until the
    next [slot] or [remove] on the table. *)

val slot : t -> int -> absent:int -> int
(** [slot t k ~absent] is the slot index of [k], inserting [k] bound to
    [absent] first when it is not present. *)

val value : t -> int -> int
(** The value held in a slot. *)

val set_value : t -> int -> int -> unit
(** Overwrites the value held in a slot. *)
