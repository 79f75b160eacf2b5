module Rid = struct
  type t = { client : int; seq : int }

  let compare a b =
    let c = Int.compare a.client b.client in
    if c <> 0 then c else Int.compare a.seq b.seq

  let equal a b = a.client = b.client && a.seq = b.seq

  let hash a = Hashtbl.hash (a.client, a.seq)

  let pp fmt a = Format.fprintf fmt "%d.%d" a.client a.seq
end

(* [log] is the tenant log the record belongs to (always 0 outside the
   multi-log fabric); it rides with the record so the sequencing layer can
   assign per-log positions and the ingress scheduler can classify by
   tenant without a side channel. *)
type record = { rid : Rid.t; size : int; data : string; log : int }

let record ~rid ~size ?(data = "") ?(log = 0) () = { rid; size; data; log }

type entry =
  | Data of record
  | Meta of { rid : Rid.t; shard : int; size : int; log : int }

let entry_rid = function Data r -> r.rid | Meta m -> m.rid

let entry_log = function Data r -> r.log | Meta m -> m.log

let meta_size = 16

let entry_wire_size = function
  | Data r -> r.size
  | Meta _ -> meta_size

let no_op =
  { rid = { Rid.client = -1; seq = -1 }; size = 0; data = "<no-op>"; log = 0 }

let is_no_op r = Rid.equal r.rid no_op.rid
