(** Per-domain slab allocator for intrusive list nodes.

    The simulation's wait-queue primitives (Mailbox, Waitq, Ivar) all
    need tiny singly-linked queue nodes on their hot paths — one per
    send/recv/broadcast. Allocating them as [Queue.t] cells or list
    conses churns the minor heap and, at 10^6 parked producers, promotes
    a million short-lived cells into the major heap. This slab keeps the
    nodes in two flat growable arrays (intrusive [next] links + [Obj.t]
    payloads) threaded through a free list, so steady-state
    enqueue/dequeue allocates nothing and freed nodes are reused LIFO —
    the hottest node stays cache-resident.

    The slab is {e domain-local} (like the engine's event-cell pool):
    every domain owns an independent slab, so parallel seed sweeps share
    nothing. {!Engine.run} calls {!reset} when a run ends; nodes must
    not be carried across runs (the sim structures that own them are dead
    anyway).

    Clients store values via [Obj.repr] and must cast back with the type
    they stored — the same discipline the engine's event payload pool
    uses. [nil] terminates lists. *)

val nil : int
(** The empty-list sentinel (negative; never a valid node). *)

val alloc : Obj.t -> int
(** [alloc v] takes a node off the free list (growing the slab if empty)
    with payload [v] and [next = nil]. *)

val free : int -> unit
(** [free n] clears the payload (so the slab never retains the value) and
    returns [n] to the free list. Freeing a node twice, or using it after
    free, is a bug the slab does not detect. *)

val get : int -> Obj.t
(** Payload of a live node. *)

val set : int -> Obj.t -> unit
(** Replace the payload of a live node. *)

val next : int -> int
(** Successor link of a live node ([nil] at the tail). *)

val set_next : int -> int -> unit

val in_use : unit -> int
(** Number of currently allocated (not freed) nodes in this domain. *)

val capacity : unit -> int
(** Current slab capacity (high-water mark of simultaneous nodes). *)

val reset : unit -> unit
(** Free every node, keeping capacity. The cost follows the nodes used
    since the last reset, not the capacity: a slab once grown to 10^6
    nodes resets a small run's few nodes in a short walk. Called by
    {!Engine.run} at the end of each run; also useful in tests. *)
