(** The per-sequencing-replica log.

    Conceptually the paper's ring buffer (section 5.6): entries are
    appended at the tail and garbage collection frees space from the front.
    Because acknowledged entries appear on every replica but possibly
    interleaved with unacknowledged ones, followers must be able to remove
    an arbitrary {e set} of entries (the batch the leader just ordered),
    not only a prefix — so the implementation is a flat slot ring with
    holes, sized by the span from the oldest live slot to the tail and
    doubled when an append would wrap, a rid index on an allocation-free
    {!Ll_sim.Int_table}, and a live-entry capacity bound that exerts
    backpressure on appends. Rids must satisfy [-1 <= client < 2^30 - 1]
    and [-1 <= seq < 2^32 - 1] (the no-op rid [{-1, -1}] included);
    others raise [Invalid_argument].

    The log also owns the duplicate filter (section 4.5: "If the retries
    result in duplicates, Erwin correctly filters them using request-ids"):
    an entry is a duplicate if its rid is still live in the log, or if a
    rid with an equal-or-higher sequence number from the same client has
    already been ordered. *)


type t

val create : capacity:int -> t
(** [capacity] bounds the number of live (unordered) entries. *)

(** Result of offering an entry to the log. *)
type append_result =
  | Appended
  | Duplicate  (** already live or already ordered; ack as success *)

val append_wait : t -> Types.entry -> append_result
(** Appends (blocking while at capacity) unless the entry is a duplicate. *)

val try_append : t -> Types.entry -> append_result option
(** Non-blocking variant: [None] when the log is full. *)

val append_or_wait : t -> Types.entry list -> cancel:(unit -> bool) -> bool
(** The replica's append admission, for one entry or a linger batch
    alike. Waits until the log can hold every non-duplicate entry, then
    appends them in one duplicate-filter pass and returns [true]. Entries
    that are all duplicates return [true] without appending. Otherwise,
    once [cancel ()] holds (the replica was sealed or changed view) it
    returns [false] with {e no} entry appended: the entries never
    half-append. Callers flipping the cancel condition must call
    {!kick}. *)

val try_admit : t -> Types.entry list -> bool
(** {!append_or_wait}'s admission without the wait: when the log can hold
    every non-duplicate entry it appends them and returns [true];
    otherwise it returns [false] and changes nothing. Never blocks, so the
    replica calls it from its bare request path. *)

val kick : t -> unit
(** Wake fibers blocked in {!append_or_wait} so they re-check [cancel]. *)

val unordered : t -> Types.entry list
(** The live entries in log order (the yet-to-be-ordered portion). *)

val live_count : t -> int

val unclaimed_count : t -> int
(** Live entries not claimed by an in-flight ordering batch. *)

val claim_unordered : t -> max:int -> Types.entry array
(** [claim_unordered t ~max] takes up to [max] live entries in log order,
    starting after the previous claim, and marks them claimed so
    overlapping ordering batches never double-select. Claimed entries stay
    live (capacity, duplicate filter, {!unordered} for recovery flushes)
    until {!remove_ordered} drops them. Array-returning hot path for the
    pipelined orderer. *)

val reset_claims : t -> unit
(** Forget claims (a discarded in-flight batch): claimed entries become
    claimable again. Callers must ensure no ordering batch is in flight. *)

val remove_ordered : t -> Types.Rid.t list -> unit
(** Garbage collection: removes the given rids (those present) and records
    them as ordered in the duplicate filter. Frees capacity. *)

val mark_ordered : t -> Types.Rid.t list -> unit
(** Updates only the duplicate filter (used when installing a new view on a
    replica that never held the flushed entries). *)

val clear : t -> unit
(** Drops all live entries (view change reset); the duplicate filter is
    retained. *)

val frontiers : t -> Log_table.t
(** The paper's last-ordered-gp counter, one per log: each log's next
    position to be assigned, as a packed {!Logid} position ([Logid.base
    ~log] for a log never ordered). Garbage collection and view installs
    set it; recovery state transfer reads it whole. *)

val last_ordered_gp : t -> log:int -> int
(** One log's entry of {!frontiers}. *)

val live_count_for : t -> log:int -> int
(** Live (unordered) entries belonging to one log. *)

val mem : t -> Types.Rid.t -> bool
(** Is this rid live (not yet garbage-collected)? *)

val known : t -> Types.Rid.t -> bool
(** Is this rid live {e or} already ordered (per the duplicate filter)?
    A replica that returns [false] for an acknowledged rid has lost it —
    the durability invariant the checker audits at crash points. *)
