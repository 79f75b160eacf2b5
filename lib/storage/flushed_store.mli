(** Write-buffered log store: memory-speed appends, disk-bound throughput.

    Storage servers in all the systems here acknowledge writes from memory
    (page cache) and drain them to the device in the background, so
    individual appends are fast but sustained throughput is capped by disk
    bandwidth — backpressure kicks in when more than [dirty_limit_bytes]
    are waiting for the device. This is how the paper's shards behave: the
    shard "whose performance is limited by the disk" (section 4.1) tops
    out around 34 K x 4 KB appends/s on the SATA testbed. *)


type 'a t

val create :
  disk:Disk.t ->
  ?dirty_limit_bytes:int ->
  ?entries_per_file:int ->
  unit ->
  'a t
(** [dirty_limit_bytes] defaults to 8 MiB (a writeback-cache-sized window). *)

val append : 'a t -> pos:int -> size:int -> 'a -> unit
(** Stores the entry in memory (blocking only while the dirty buffer is
    over its limit) and schedules it for persistence. *)

val append_batch : 'a t -> (int * int * 'a) list -> unit
(** [(pos, size, v)] triples; one backpressure check for the whole batch. *)

val has_room : 'a t -> bool
(** The dirty buffer is below its limit, so {!append} and {!append_batch}
    would not block now. *)

val set_mem : 'a t -> pos:int -> 'a -> unit
(** Pure in-memory placement with no device charge — for index updates
    over data whose bytes were already persisted elsewhere (Erwin-st
    binds journaled records to positions this way). *)

val read : 'a t -> pos:int -> 'a option
(** Serves from memory, never the device: every entry stays in memory
    until trimmed, so a read neither blocks nor costs device time. *)

val read_many : 'a t -> int list -> (int * 'a) list
(** Batched {!read}: the present positions, in input order, each with its
    value. Missing positions are skipped. *)

val length : 'a t -> int
val truncate : 'a t -> int -> unit

val remove : 'a t -> pos:int -> unit
(** Deletes the single entry at [pos] (no device charge — an unbind is
    metadata, the bytes are reclaimed lazily). View changes use this to
    drop one log's tail bindings without a numeric truncate destroying
    interleaved positions of other logs. *)

val trim : 'a t -> int -> unit
val dirty_bytes : 'a t -> int

val flush_wait : 'a t -> unit
(** Blocks until everything staged so far is on the device. *)

val entries : 'a t -> (int * 'a) list

val entries_from : ?upto:int -> 'a t -> int -> (int * 'a) list
(** Entries at positions [>= from] (and [< upto], when given), in
    position order. *)
