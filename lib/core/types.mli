(** Core types shared by every shared-log implementation in this repo. *)

(** Record identifier: client id plus the client's monotonically increasing
    request id (the paper's record-id, section 5.1: "record-id is a
    combination of client-id and request-id"). *)
module Rid : sig
  type t = { client : int; seq : int }

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

(** A log record. [data] is a small correctness tag carried through the
    system; [size] is the modeled payload size in bytes (what the network
    and disks are charged for); [log] is the tenant log it belongs to
    (always [0] outside the multi-log fabric). *)
type record = { rid : Rid.t; size : int; data : string; log : int }

val record :
  rid:Rid.t -> size:int -> ?data:string -> ?log:int -> unit -> record

(** Sequencing-layer entry: Erwin-m funnels whole records through the
    sequencing layer, Erwin-st only metadata [<record-id, shard-id>]. *)
type entry =
  | Data of record  (** Erwin-m: the record itself *)
  | Meta of { rid : Rid.t; shard : int; size : int; log : int }
      (** Erwin-st: identifies a record of [size] bytes staged on [shard] *)

val entry_rid : entry -> Rid.t

val entry_log : entry -> int
(** The tenant log an entry belongs to ([0] outside the multi-log
    fabric). *)

val entry_wire_size : entry -> int
(** Bytes this entry occupies on the wire / in sequencing-replica memory
    (records: payload size; metadata: a fixed 16 bytes). *)

val meta_size : int

val no_op : record
(** The special no-op record written when an Erwin-st client fails after
    its metadata committed but its data never arrived (section 5.4).
    Readers skip no-ops. *)

val is_no_op : record -> bool
