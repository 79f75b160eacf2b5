(** Packed (log, position) keyspace for the multi-log fabric.

    A packed global position is [(log lsl shift) lor pos]. Log 0 packs to
    the raw position, so a log-0 position is its own encoding. Positions
    within one log are dense and numerically ordered; distinct logs
    occupy disjoint ranges. Per-log counters keyed by log id live in
    {!Log_table}. *)

val shift : int
(** Bit position of the log id within a packed position (40). *)

val max_pos : int
(** Largest per-log position ([2^shift - 1]). *)

val max_logs : int
(** Exclusive upper bound on log ids. *)

val pack : log:int -> int -> int
(** [pack ~log pos] is the packed global position. Raises
    [Invalid_argument] on out-of-range log or position. *)

val log_of : int -> int
(** Log id of a packed position ([0] for every log-0 position). *)

val pos_of : int -> int
(** Per-log position of a packed position (identity for log 0). *)

val base : log:int -> int
(** [base ~log] is [pack ~log 0]: the first position of [log]. *)

val pp : Format.formatter -> int -> unit
(** ["pos@log"], or just ["pos"] for log 0. *)
