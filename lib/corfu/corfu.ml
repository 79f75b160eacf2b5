open Ll_sim
open Ll_net
open Ll_storage

type config = {
  nshards : int;
  replicas_per_shard : int;
  shard_disk : Lazylog.Config.disk_kind;
  link : Fabric.link;
  rpc_overhead : Engine.time;
  sequencer_base_ns : int;
  storage_base_ns : int;
}

let default_config =
  {
    nshards = 1;
    replicas_per_shard = 3;
    shard_disk = Lazylog.Config.Sata;
    link = Fabric.default_link;
    rpc_overhead = Engine.ns 500;
    sequencer_base_ns = 400;
    storage_base_ns = 1_500;
  }

type req =
  | Seq_next
  | Seq_tail
  | Su_write of { pos : int; record : Lazylog.Types.record }
  | Su_read of { positions : int list }
  | Su_probe of { positions : int list }  (* non-blocking: which are missing *)
  | Su_fill of { pos : int }  (* write-once junk fill for holes *)
  | Su_trim of { upto : int }

type resp =
  | R_pos of int
  | R_ok
  | R_records of (int * Lazylog.Types.record) list
  | R_missing of int list

type storage_unit = {
  su_node : (req, resp) Rpc.msg Fabric.node;
  su_ep : (req, resp) Rpc.endpoint;
  store : Lazylog.Types.record Flushed_store.t;
  written : Waitq.t;  (* reads of not-yet-written positions wait here *)
  mutable trimmed : int;  (* positions below this are gone, not pending *)
}

type shard = { chain : storage_unit list }  (* head first, tail last *)

type t = {
  config : config;
  fabric : (req, resp) Rpc.msg Fabric.t;
  sequencer : (req, resp) Rpc.msg Fabric.node;
  mutable shards : shard array;
  mutable tail : int;
  mutable next_client : int;
  mutable written : int;
}

let positions_written t = t.written

let messages_sent t = Fabric.messages_sent t.fabric

let allocate_position t =
  (* Test hook: take a sequencer position without writing the chain —
     the crashed-client scenario behind hole filling. *)
  let pos = t.tail in
  t.tail <- pos + 1;
  pos

let req_size (r : req) =
  match r with
  | Su_write { record; _ } -> record.Lazylog.Types.size + 16
  | Su_read { positions } | Su_probe { positions } -> 8 * List.length positions
  | Seq_next | Seq_tail | Su_trim _ | Su_fill _ -> 32

let resp_size = function
  | R_records records ->
    List.fold_left
      (fun acc (_, (r : Lazylog.Types.record)) -> acc + r.size + 16)
      0 records
  | R_missing l -> 8 * List.length l
  | R_pos _ | R_ok -> 16

let make_storage_unit t ~name =
  let su_node =
    Fabric.add_node t.fabric ~name ~send_overhead:t.config.rpc_overhead
      ~recv_overhead:t.config.rpc_overhead ()
  in
  let su_ep = Rpc.endpoint t.fabric su_node in
  let disk =
    match t.config.shard_disk with
    | Lazylog.Config.Sata -> Disk.sata_ssd ()
    | Lazylog.Config.Nvme -> Disk.nvme_ssd ()
  in
  let su =
    {
      su_node;
      su_ep;
      store = Flushed_store.create ~disk ();
      written = Waitq.create ();
      trimmed = 0;
    }
  in
  (* Storage units validate, index and buffer each record; ~1.2 ns/B puts
     a 4 KB chain write at ~6.5 us of CPU, the regime where Corfu's serial
     chain hops cost ~4x an Erwin append (paper figure 6). *)
  Rpc.set_service_time su_ep (fun r ->
      t.config.storage_base_ns
      + int_of_float (1.2 *. float_of_int (req_size r)));
  Rpc.set_handler su_ep (fun ~src:_ r ~reply ->
      match r with
      | Su_write { pos; record } ->
        Flushed_store.append su.store ~pos ~size:record.Lazylog.Types.size
          record;
        t.written <- t.written + 1;
        Waitq.broadcast su.written;
        reply R_ok
      | Su_read { positions } ->
        (* A position is answerable once written (or filled) — or once
           trimmed away, in which case it is simply absent. *)
        let have () =
          List.for_all
            (fun p ->
              p < su.trimmed || Flushed_store.read su.store ~pos:p <> None)
            positions
        in
        Waitq.await su.written have;
        let records =
          List.filter_map
            (fun p ->
              match Flushed_store.read su.store ~pos:p with
              | Some rec_ -> Some (p, rec_)
              | None -> None)
            positions
        in
        reply ~size:(resp_size (R_records records)) (R_records records)
      | Su_probe { positions } ->
        let missing =
          List.filter
            (fun p ->
              p >= su.trimmed && Flushed_store.read su.store ~pos:p = None)
            positions
        in
        reply (R_missing missing)
      | Su_fill { pos } ->
        (* Write-once: a fill loses to data that arrived first. *)
        if Flushed_store.read su.store ~pos = None then begin
          Flushed_store.append su.store ~pos ~size:16 Lazylog.Types.no_op;
          Waitq.broadcast su.written
        end;
        reply R_ok
      | Su_trim { upto } ->
        Flushed_store.trim su.store upto;
        if upto > su.trimmed then su.trimmed <- upto;
        Waitq.broadcast su.written;
        reply R_ok
      | Seq_next | Seq_tail -> failwith "corfu: sequencer request at storage");
  su

let create ?(config = default_config) () =
  let fabric = Fabric.create ~link:config.link () in
  let sequencer =
    Fabric.add_node fabric ~name:"corfu.sequencer"
      ~send_overhead:config.rpc_overhead ~recv_overhead:config.rpc_overhead ()
  in
  let t =
    {
      config;
      fabric;
      sequencer;
      shards = [||];
      tail = 0;
      next_client = 0;
      written = 0;
    }
  in
  let seq_ep = Rpc.endpoint fabric sequencer in
  Rpc.set_service_time seq_ep (fun _ -> config.sequencer_base_ns);
  Rpc.set_handler seq_ep (fun ~src:_ r ~reply ->
      match r with
      | Seq_next ->
        let pos = t.tail in
        t.tail <- pos + 1;
        reply (R_pos pos)
      | Seq_tail -> reply (R_pos t.tail)
      | Su_write _ | Su_read _ | Su_probe _ | Su_fill _ | Su_trim _ ->
        failwith "corfu: storage request at sequencer");
  t.shards <-
    Array.init config.nshards (fun s ->
        {
          chain =
            List.init config.replicas_per_shard (fun i ->
                make_storage_unit t
                  ~name:(Printf.sprintf "corfu.s%d.r%d" s i));
        });
  t

let tail_id shard =
  Fabric.id (List.nth shard.chain (List.length shard.chain - 1)).su_node

(* A read stuck on a hole is unstuck by filling the hole with junk along
   the whole chain, then read again under the same 5 ms deadline. *)
let rec fill_and_reread ep shard ps =
  (match Rpc.call ep ~dst:(tail_id shard) (Su_probe { positions = ps }) with
  | R_missing missing ->
    List.iter
      (fun pos ->
        List.iter
          (fun su ->
            ignore (Rpc.call ep ~dst:(Fabric.id su.su_node) (Su_fill { pos })))
          shard.chain)
      missing
  | _ -> ());
  let r = Su_read { positions = ps } in
  match
    Rpc.call_timeout ep ~dst:(tail_id shard) ~size:(req_size r)
      ~timeout:(Engine.ms 5) r
  with
  | Some resp -> resp
  | None -> fill_and_reread ep shard ps

let client t : Lazylog.Log_api.t =
  let cid = t.next_client in
  t.next_client <- cid + 1;
  let node =
    Fabric.add_node t.fabric
      ~name:(Printf.sprintf "corfu-client%d" cid)
      ~send_overhead:t.config.rpc_overhead ~recv_overhead:t.config.rpc_overhead
      ()
  in
  let ep = Rpc.endpoint t.fabric node in
  let seq = ref 0 in
  let append_pos ~size ~data =
    incr seq;
    let rid = { Lazylog.Types.Rid.client = cid; seq = !seq } in
    let record = Lazylog.Types.record ~rid ~size ~data () in
    (* 1 RTT: obtain the position. *)
    let pos =
      match Rpc.call ep ~dst:(Fabric.id t.sequencer) Seq_next with
      | R_pos p -> p
      | _ -> failwith "corfu: bad sequencer response"
    in
    (* k RTTs: client-driven chain, replicas updated serially. *)
    let shard = t.shards.(pos mod Array.length t.shards) in
    List.iter
      (fun su ->
        let r = Su_write { pos; record } in
        match Rpc.call ep ~dst:(Fabric.id su.su_node) ~size:(req_size r) r with
        | R_ok -> ()
        | _ -> failwith "corfu: bad write response")
      shard.chain;
    pos
  in
  let read ~from ~len =
    let positions = List.init len (fun i -> from + i) in
    let groups = Array.make (Array.length t.shards) [] in
    List.iter
      (fun p ->
        let s = p mod Array.length t.shards in
        groups.(s) <- p :: groups.(s))
      positions;
    let reads =
      List.filter
        (fun (_, ps) -> ps <> [])
        (List.mapi (fun s ps -> (s, List.rev ps)) (Array.to_list groups))
    in
    (* Read from the chain tails, where writes commit: one group, one
       member per involved shard, under one 5 ms deadline. Only a member
       stuck on a hole (a crashed client's allocated position) walks
       Corfu's hole-filling protocol after it. *)
    let g = Rpc.group ep (List.length reads) in
    List.iter
      (fun (s, ps) ->
        let r = Su_read { positions = ps } in
        Rpc.group_call g ~dst:(tail_id t.shards.(s)) ~size:(req_size r) r)
      reads;
    ignore (Rpc.group_await g ~timeout:(Engine.ms 5) : bool);
    List.mapi
      (fun m (s, ps) ->
        match Rpc.group_reply g m with
        | Some resp -> resp
        | None -> fill_and_reread ep t.shards.(s) ps)
      reads
    |> List.concat_map (function
         | R_records records -> records
         | _ -> failwith "corfu: bad read response")
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let check_tail () =
    match Rpc.call ep ~dst:(Fabric.id t.sequencer) Seq_tail with
    | R_pos p -> p
    | _ -> failwith "corfu: bad tail response"
  in
  let trim ~upto =
    Array.iter
      (fun shard ->
        List.iter
          (fun su ->
            ignore (Rpc.call ep ~dst:(Fabric.id su.su_node) (Su_trim { upto })))
          shard.chain)
      t.shards;
    true
  in
  {
    Lazylog.Log_api.name = "corfu";
    append = (fun ~size ~data -> ignore (append_pos ~size ~data : int); true);
    read;
    check_tail;
    trim;
    append_sync = Some (fun ~size ~data -> append_pos ~size ~data);
  }
