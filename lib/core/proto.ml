(** Wire protocol for the Erwin systems (both Erwin-m and Erwin-st).

    One request/response union serves the sequencing replicas, the storage
    shards, the background orderer, and the reconfiguration controller.
    Erwin-m clusters only ever exchange the [Sr_*], [Msh_*] and [Sh_*]
    constructors; Erwin-st adds the [Ssh_*] ones. *)

type gp = int
(** A global log position. *)

type req =
  (* --- Sequencing replicas (section 4.1, 4.5) --- *)
  | Sr_append of {
      view : int;
      entries : Types.entry list;
      tracked : Types.Rid.t list;
    }
      (** Client append of one or more entries: a plain append sends one,
          the group-commit batcher its whole linger batch. The replica
          admits the entries under one view check and one duplicate-filter
          pass, all or nothing in this view. [tracked] lists the rids
          whose bound position the leader must remember for a later
          [Sr_wait_ordered] (appendSync support). *)
  | Sr_check_tail of { view : int; log : int }
      (** Tail of one log ([log = 0] is the root log). *)
  | Sr_seal of { view : int }
  | Sr_get_state
      (** Controller -> recovery replica: unordered log + last-ordered-gp
          of every log. *)
  | Sr_install_view of {
      new_view : int;
      frontiers : gp list;
          (** the new view's last-ordered-gp of every log, packed (each
              names its own log), log 0 first *)
      flushed : (gp * Types.Rid.t) list;
    }
  | Sr_wait_ordered of { rid : Types.Rid.t }
      (** Blocks until the tracked rid is bound; responds with its position. *)
  | Sr_order_demand of { upto : gp }
      (** Shard -> orderer: a read is parked on a position below [upto];
          bind eagerly up to it (overriding the lazy cadence) and push
          stable-gp. Idempotent — the orderer keeps only the max demanded
          position — and cheap to retry. *)
  (* --- Shards, common paths --- *)
  | Sh_set_stable of { gp : gp }  (** one-way: advance the readable prefix *)
  | Sh_read of { positions : gp list; stable_hint : gp }
      (** Read records; waits until all positions are below stable-gp.
          [stable_hint] piggybacks the stable-gp the client learned from
          the sequencing layer, so a shard that lost a one-way
          [Sh_set_stable] catches up instead of blocking the read. *)
  | Sh_trim of { upto : gp }
  (* --- Erwin-m shards: background pushes of full records ---

     [truncate] lists packed frontiers, at most one per log: each unbinds
     its own log from that position up, and no other log's positions.
     It is empty except in a recovery flush, and rides in the same
     message as the slots so a recovery's unbind and rebind stay atomic
     per shard even when several logs flush at once. *)
  | Msh_push of { truncate : gp list; slots : (gp * Types.record) list }
  (* --- Erwin-st shards: uncoordinated data writes + metadata ordering --- *)
  | Ssh_data_write of { record : Types.record }
      (** Client -> every shard replica, in parallel: stage the record. *)
  | Ssh_order of {
      truncate : gp list;
      bindings : (gp * Types.Rid.t) list;  (** this shard's records *)
      map_chunk : (gp * int) list;  (** position -> shard, full batch *)
    }
  | Ssh_replicate_order of {
      truncate : gp list;
      bindings : (gp * Types.Rid.t) list;
      noops : Types.Rid.t list;
      map_chunk : (gp * int) list;
    }
  | Ssh_backfill of { slots : (gp * Types.record) list }
      (** Primary -> backup: records the backup was missing. *)
  | Ssh_get_map of { from : gp; count : int; stable_hint : gp }
  (* --- Streaming delivery (lib/stream): subscriptions off the stable
     tail with durable replicated cursors --- *)
  | St_subscribe of { name : string; endpoint : int; from : gp; window : int }
      (** Consumer -> subscription manager: attach (or re-attach after a
          consumer restart) the named subscription, delivering to fabric
          node [endpoint]. [from] seeds the cursor when the name is new;
          a re-attach keeps the manager's cursor (the redelivered gap is
          filtered by consumer-side dedup). [window] is the consumer's
          credit grant. *)
  | St_push of {
      name : string;
      epoch : int;
      records : (gp * Types.record) list;  (** ascending positions *)
    }
      (** Manager -> consumer: one in-flight batch of stable records. The
          RPC response is the ack ([R_sub_ack]); a lost response means
          redelivery of the same batch. *)
  | St_cursor_sync of { name : string; epoch : int; cursor : gp }
      (** Manager -> every sequencing replica, one-way: durably replicate
          the acknowledged cursor. Receivers max-merge, so lost or
          reordered syncs only lag the floor (redelivery + dedup absorb
          the gap after a recovery). *)
  | St_cursor_fetch
      (** Manager -> sequencing replica: read back every replicated
          cursor (view-change recovery). *)

type resp =
  | R_ok
  | R_append of { ok : bool; view : int }
      (** [Sr_append] reply. [ok = true]: every entry is durable in
          [view], freshly appended or filtered as an already-known
          duplicate. [ok = false]: no entry was appended (wrong view,
          sealed, shed, or sealed while waiting for capacity).
          [Ssh_data_write] reuses it as a plain ok/fail (shards answer
          with [view = 0]). *)
  | R_tail of { ok : bool; tail : int }
  | R_state of { frontiers : gp list; entries : Types.entry list }
      (** [frontiers]: the replica's last-ordered-gp of every log it has
          ordered, packed, log 0 first. *)
  | R_gp of { gp : gp }
  | R_records of { records : (gp * Types.record) list; stable : gp }
      (** [stable] piggybacks the responder's stable mirror: read traffic
          repairs replicas (and clients) that missed a lossy one-way
          [Sh_set_stable] without waiting for the next broadcast. It rides
          in the per-record header slack already counted by [resp_size]. *)
  | R_map of { chunk : (gp * int) list; stable : gp }
  | R_missing of { rids : Types.Rid.t list }
  | R_sub of { epoch : int; cursor : gp }
      (** Subscribe ack: the subscription's current epoch and cursor. *)
  | R_sub_ack of { epoch : int; upto : gp; credits : int }
      (** Consumer's cumulative push ack: every position [< upto] is
          delivered durably ([upto] is the consumer's own cursor, so it
          can run ahead of the pushed batch when dedup filtered a
          redelivered prefix); [credits] re-grants flow-control window. *)
  | R_cursors of { cursors : (string * int * gp) list }
      (** [St_cursor_fetch] reply: (name, epoch, cursor) per
          subscription. *)

(** A per-record append: an [Sr_append] of one entry. *)
let append_one ~view ~track entry =
  Sr_append
    {
      view;
      entries = [ entry ];
      tracked = (if track then [ Types.entry_rid entry ] else []);
    }

(** Approximate wire sizes, for the fabric's per-byte costs. *)

let record_wire (r : Types.record) = r.size + 16

let slots_wire slots =
  List.fold_left (fun acc (_, r) -> acc + record_wire r) 0 slots

(* Log 0's frontier rides free in a message's fixed header; every other
   log's costs [each] bytes (16 in a state transfer, 8 in a
   truncation). *)
let rec frontiers_wire ~each = function
  | [] -> 0
  | g :: rest ->
    (if Logid.log_of g = 0 then 0 else each) + frontiers_wire ~each rest

let rec entries_wire entries acc =
  match entries with
  | [] -> acc
  | e :: rest -> entries_wire rest (acc + Types.entry_wire_size e + 4)

let req_size = function
  | Sr_append { entries; _ } ->
    (* A 12-byte request header, then each entry with 4 bytes of
       framing: one entry costs [entry_wire_size + 16], and a batch
       shares the header. *)
    entries_wire entries 12
  | Sr_install_view { flushed; frontiers; _ } ->
    (24 * List.length flushed) + frontiers_wire ~each:16 frontiers + 32
  | Msh_push { slots; truncate } ->
    slots_wire slots + frontiers_wire ~each:8 truncate
  | Ssh_data_write { record } -> record_wire record
  | Ssh_order { bindings; map_chunk; truncate } ->
    (24 * List.length bindings)
    + (12 * List.length map_chunk)
    + frontiers_wire ~each:8 truncate
  | Ssh_replicate_order { bindings; map_chunk; noops; truncate } ->
    (24 * List.length bindings)
    + (12 * List.length map_chunk)
    + (16 * List.length noops)
    + frontiers_wire ~each:8 truncate
  | Ssh_backfill { slots } -> slots_wire slots
  | Sh_read { positions; _ } -> (8 * List.length positions) + 8
  | St_push { records; _ } -> slots_wire records + 32
  | Sr_check_tail _ | Sr_seal _ | Sr_get_state | Sr_wait_ordered _
  | Sr_order_demand _ | Sh_set_stable _ | Sh_trim _ | Ssh_get_map _
  | St_subscribe _ | St_cursor_sync _ | St_cursor_fetch ->
    32

let resp_size = function
  | R_records { records; _ } -> slots_wire records
  | R_state { entries; frontiers } ->
    List.fold_left
      (fun acc e -> acc + Types.entry_wire_size e)
      (16 + frontiers_wire ~each:16 frontiers)
      entries
  | R_map { chunk; _ } -> 12 * List.length chunk
  | R_missing { rids } -> 16 * List.length rids
  | R_cursors { cursors } -> (24 * List.length cursors) + 16
  | R_ok | R_append _ | R_tail _ | R_gp _ | R_sub _ | R_sub_ack _ -> 16

(* Every handler answers through this, with the RPC reply it was given:
   a reply's size defaults to 64 B, so a response sent without
   [resp_size] is charged the wrong wire time. Taking the reply itself
   builds no closure per request. *)
let answer (reply : ?size:int -> resp -> unit) resp =
  reply ~size:(resp_size resp) resp
