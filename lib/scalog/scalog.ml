open Ll_sim
open Ll_net
open Ll_storage

type config = {
  nshards : int;
  interleaving_interval : Engine.time;
  shard_disk : Lazylog.Config.disk_kind;
  link : Fabric.link;
  rpc_overhead : Engine.time;
  shard_base_ns : int;
}

let default_config =
  {
    nshards = 1;
    interleaving_interval = Engine.us 100;
    shard_disk = Lazylog.Config.Sata;
    link = Fabric.default_link;
    rpc_overhead = Engine.us 80;
    shard_base_ns = 2_000;
  }

type req =
  | Append of { record : Lazylog.Types.record }
  | Replicate of { lsn : int; record : Lazylog.Types.record }
  | Report of { shard : int; primary : bool; len : int }
  | Cut of { shard : int; upto : int; base : int }
      (** lsns below [upto] are covered; lsn [l] gets position
          [base + l - prev_upto] *)
  | Resolve of { from : int; len : int }
  | Tail
  | ShardRead of { lsns : int list }
  | ShardTrim of { upto_lsn : int }

type resp =
  | R_gp of int
  | R_ok
  | R_tail of int
  | R_resolved of (int * int * int) list  (** position, shard, lsn *)
  | R_records of (int * Lazylog.Types.record) list  (** lsn, record *)

let req_size = function
  | Append { record } | Replicate { record; _ } -> record.Lazylog.Types.size + 16
  | ShardRead { lsns } -> 8 * List.length lsns
  | Report _ | Cut _ | Resolve _ | Tail | ShardTrim _ -> 32

let resp_size = function
  | R_records records ->
    List.fold_left
      (fun acc (_, (r : Lazylog.Types.record)) -> acc + r.size + 16)
      0 records
  | R_resolved l -> 24 * List.length l
  | R_gp _ | R_ok | R_tail _ -> 16

type shard = {
  sid : int;
  primary : (req, resp) Rpc.msg Fabric.node;
  primary_ep : (req, resp) Rpc.endpoint;
  backup : (req, resp) Rpc.msg Fabric.node;
  pstore : Lazylog.Types.record Flushed_store.t;
  bstore : Lazylog.Types.record Flushed_store.t;
  mutable next_lsn : int;
  mutable backup_len : int;
  mutable acked_upto : int;  (* lsns below this are covered by a cut *)
  cut_watch : Waitq.t;
  pending_gp : (int, int) Hashtbl.t;
      (* lsn -> position, from its cut until its Append handler replies *)
}

type t = {
  config : config;
  fabric : (req, resp) Rpc.msg Fabric.t;
  mutable shards : shard array;
  ordering : (req, resp) Rpc.msg Fabric.node;
  paxos : int array Ll_repl.Paxos.t;
  (* ordering-leader state *)
  reported_p : int array;
  reported_b : int array;
  mutable last_cut : int array;
  mutable total : int;
  (* position -> (shard, lsn) resolution segments: (gp, shard, lsn, count) *)
  mutable segments : (int * int * int * int) list;  (* newest first *)
  mutable cuts_committed : int;
  mutable next_client : int;
}

let committed_cuts t = t.cuts_committed

let pending_positions t =
  Array.fold_left (fun n s -> n + Hashtbl.length s.pending_gp) 0 t.shards

(* --- shard servers --- *)

let make_shard ~config fabric sid ~ordering_id =
  let mk name =
    Fabric.add_node fabric ~name ~send_overhead:config.rpc_overhead
      ~recv_overhead:config.rpc_overhead ()
  in
  let disk () =
    match config.shard_disk with
    | Lazylog.Config.Sata -> Disk.sata_ssd ()
    | Lazylog.Config.Nvme -> Disk.nvme_ssd ()
  in
  let primary = mk (Printf.sprintf "scalog.s%d.primary" sid) in
  let backup = mk (Printf.sprintf "scalog.s%d.backup" sid) in
  let primary_ep = Rpc.endpoint fabric primary in
  let backup_ep = Rpc.endpoint fabric backup in
  let s =
    {
      sid;
      primary;
      primary_ep;
      backup;
      pstore = Flushed_store.create ~disk:(disk ()) ();
      bstore = Flushed_store.create ~disk:(disk ()) ();
      next_lsn = 0;
      backup_len = 0;
      acked_upto = 0;
      cut_watch = Waitq.create ();
      pending_gp = Hashtbl.create 1024;
    }
  in
  let service req =
    config.shard_base_ns + int_of_float (0.3 *. float_of_int (req_size req))
  in
  Rpc.set_service_time primary_ep service;
  Rpc.set_service_time backup_ep service;
  Rpc.set_handler primary_ep (fun ~src:_ req ~reply ->
      match req with
      | Append { record } ->
        let lsn = s.next_lsn in
        s.next_lsn <- lsn + 1;
        Flushed_store.append s.pstore ~pos:lsn ~size:record.Lazylog.Types.size
          record;
        (* FIFO replication to the backup; the backup's durability is
           confirmed through its own length reports, not an ack. *)
        Rpc.send_oneway s.primary_ep ~dst:(Fabric.id s.backup)
          ~size:(req_size (Replicate { lsn; record }))
          (Replicate { lsn; record });
        (* Ack only once a committed cut covers this lsn (eager global
           ordering in the critical path). *)
        Waitq.await s.cut_watch (fun () -> s.acked_upto > lsn);
        let gp = Hashtbl.find s.pending_gp lsn in
        Hashtbl.remove s.pending_gp lsn;
        reply (R_gp gp)
      | Cut { upto; base; _ } ->
        if upto > s.acked_upto then begin
          for lsn = s.acked_upto to upto - 1 do
            Hashtbl.replace s.pending_gp lsn (base + lsn - s.acked_upto)
          done;
          s.acked_upto <- upto;
          Waitq.broadcast s.cut_watch
        end;
        reply R_ok
      | ShardRead { lsns } ->
        let records =
          List.filter_map
            (fun lsn ->
              match Flushed_store.read s.pstore ~pos:lsn with
              | Some r -> Some (lsn, r)
              | None -> None)
            lsns
        in
        reply ~size:(resp_size (R_records records)) (R_records records)
      | ShardTrim { upto_lsn } ->
        Flushed_store.trim s.pstore upto_lsn;
        Flushed_store.trim s.bstore upto_lsn;
        reply R_ok
      | Replicate _ | Report _ | Resolve _ | Tail ->
        failwith "scalog primary: unexpected request");
  Rpc.set_handler backup_ep (fun ~src:_ req ~reply ->
      match req with
      | Replicate { lsn; record } ->
        Flushed_store.append s.bstore ~pos:lsn ~size:record.Lazylog.Types.size
          record;
        if lsn + 1 > s.backup_len then s.backup_len <- lsn + 1;
        reply R_ok
      | _ -> failwith "scalog backup: unexpected request");
  (* Length reports, every interleaving interval (from both replicas, as
     the ordering layer needs the durable = min(primary, backup) prefix). *)
  Engine.spawn ~name:(Printf.sprintf "scalog.s%d.report" sid) (fun () ->
      let rec loop () =
        Engine.sleep config.interleaving_interval;
        Rpc.send_oneway s.primary_ep ~dst:ordering_id
          (Report { shard = sid; primary = true; len = s.next_lsn });
        Rpc.send_oneway backup_ep ~dst:ordering_id
          (Report { shard = sid; primary = false; len = s.backup_len });
        loop ()
      in
      loop ());
  s

(* --- ordering layer --- *)

let ordering_tick t ep =
  let n = Array.length t.shards in
  let durable = Array.init n (fun i -> min t.reported_p.(i) t.reported_b.(i)) in
  if Array.exists (fun i -> durable.(i) > t.last_cut.(i)) (Array.init n Fun.id)
  then begin
    (* Make the cut fault tolerant before exposing it. *)
    ignore (Ll_repl.Paxos.propose t.paxos durable : int);
    t.cuts_committed <- t.cuts_committed + 1;
    let prev = t.last_cut in
    let base = ref t.total in
    for sid = 0 to n - 1 do
      let delta = durable.(sid) - prev.(sid) in
      if delta > 0 then begin
        t.segments <- (!base, sid, prev.(sid), delta) :: t.segments;
        Rpc.send_oneway ep
          ~dst:(Fabric.id t.shards.(sid).primary)
          (Cut { shard = sid; upto = durable.(sid); base = !base });
        base := !base + delta
      end
    done;
    t.total <- !base;
    t.last_cut <- durable
  end

let resolve t from len =
  (* Segments are newest-first; collect the (position, shard, lsn) triple
     for every requested position that is already ordered. *)
  let out = ref [] in
  List.iter
    (fun (base, sid, lsn0, count) ->
      for i = 0 to count - 1 do
        let gp = base + i in
        if gp >= from && gp < from + len then
          out := (gp, sid, lsn0 + i) :: !out
      done)
    t.segments;
  (* Positions are unique across segments, so first-component order. *)
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !out

let create ?(config = default_config) () =
  let fabric = Fabric.create ~link:config.link () in
  let ordering =
    Fabric.add_node fabric ~name:"scalog.ordering"
      ~send_overhead:config.rpc_overhead ~recv_overhead:config.rpc_overhead ()
  in
  let paxos =
    Ll_repl.Paxos.create ~acceptors:3 ~link:config.link
      ~rpc_overhead:config.rpc_overhead ()
  in
  let ordering_ep = Rpc.endpoint fabric ordering in
  let n = config.nshards in
  let t =
    {
      config;
      fabric;
      shards = [||];
      ordering;
      paxos;
      reported_p = Array.make n 0;
      reported_b = Array.make n 0;
      last_cut = Array.make n 0;
      total = 0;
      segments = [];
      cuts_committed = 0;
      next_client = 0;
    }
  in
  t.shards <-
    Array.init n (fun sid ->
        make_shard ~config fabric sid ~ordering_id:(Fabric.id ordering));
  Rpc.set_service_time ordering_ep (fun _ -> 2_000);
  Rpc.set_handler ordering_ep (fun ~src:_ req ~reply ->
      match req with
      | Report { shard; primary; len } ->
        if primary then
          t.reported_p.(shard) <- max t.reported_p.(shard) len
        else t.reported_b.(shard) <- max t.reported_b.(shard) len;
        reply R_ok
      | Resolve { from; len } -> reply (R_resolved (resolve t from len))
      | Tail -> reply (R_tail t.total)
      | _ -> failwith "scalog ordering: unexpected request");
  (* The interleaving loop: batch reports, then order via Paxos. *)
  Engine.spawn ~name:"scalog.ordering.loop" (fun () ->
      let rec loop () =
        Engine.sleep config.interleaving_interval;
        ordering_tick t ordering_ep;
        loop ()
      in
      loop ());
  t

let client t : Lazylog.Log_api.t =
  let cid = t.next_client in
  t.next_client <- cid + 1;
  let node =
    Fabric.add_node t.fabric
      ~name:(Printf.sprintf "scalog-client%d" cid)
      ~send_overhead:t.config.rpc_overhead ~recv_overhead:t.config.rpc_overhead
      ()
  in
  let ep = Rpc.endpoint t.fabric node in
  let seq = ref 0 in
  let rr = ref cid in
  let append_pos ~size ~data =
    incr seq;
    let rid = { Lazylog.Types.Rid.client = cid; seq = !seq } in
    let record = Lazylog.Types.record ~rid ~size ~data () in
    (* Scalog clients choose their shard. *)
    let shard = t.shards.(!rr mod Array.length t.shards) in
    incr rr;
    match
      Rpc.call ep ~dst:(Fabric.id shard.primary)
        ~size:(req_size (Append { record }))
        (Append { record })
    with
    | R_gp gp -> gp
    | _ -> failwith "scalog: bad append response"
  in
  let read ~from ~len =
    (* Resolve positions, waiting for ordering to catch up if needed. *)
    let rec resolve_all () =
      match Rpc.call ep ~dst:(Fabric.id t.ordering) (Resolve { from; len }) with
      | R_resolved triples when List.length triples >= len -> triples
      | R_resolved _ ->
        Engine.sleep t.config.interleaving_interval;
        resolve_all ()
      | _ -> failwith "scalog: bad resolve response"
    in
    let triples = resolve_all () in
    let by_shard = Hashtbl.create 8 in
    List.iter
      (fun (gp, sid, lsn) ->
        let l = try Hashtbl.find by_shard sid with Not_found -> [] in
        Hashtbl.replace by_shard sid ((gp, lsn) :: l))
      triples;
    let g = Rpc.group ep (Hashtbl.length by_shard) in
    let calls =
      Hashtbl.fold
        (fun sid pairs acc ->
          let lsns = List.map snd pairs in
          Rpc.group_call g
            ~dst:(Fabric.id t.shards.(sid).primary)
            ~size:(req_size (ShardRead { lsns }))
            (ShardRead { lsns });
          pairs :: acc)
        by_shard []
    in
    ignore (Rpc.group_join g : bool);
    List.rev calls
    |> List.mapi (fun m pairs ->
           match Rpc.group_reply g m with
           | Some (R_records records) ->
             List.filter_map
               (fun (gp, lsn) ->
                 match List.assoc_opt lsn records with
                 | Some r -> Some (gp, r)
                 | None -> None)
               pairs
           | _ -> failwith "scalog: bad read response")
    |> List.concat
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let check_tail () =
    match Rpc.call ep ~dst:(Fabric.id t.ordering) Tail with
    | R_tail n -> n
    | _ -> failwith "scalog: bad tail response"
  in
  let trim ~upto =
    match Rpc.call ep ~dst:(Fabric.id t.ordering) (Resolve { from = 0; len = upto }) with
    | R_resolved triples ->
      let upto_lsn = Hashtbl.create 8 in
      List.iter
        (fun (_, sid, lsn) ->
          let cur = try Hashtbl.find upto_lsn sid with Not_found -> 0 in
          Hashtbl.replace upto_lsn sid (max cur (lsn + 1)))
        triples;
      Hashtbl.iter
        (fun sid l ->
          ignore
            (Rpc.call ep ~dst:(Fabric.id t.shards.(sid).primary)
               (ShardTrim { upto_lsn = l })))
        upto_lsn;
      true
    | _ -> false
  in
  {
    Lazylog.Log_api.name = "scalog";
    append = (fun ~size ~data -> ignore (append_pos ~size ~data : int); true);
    read;
    check_tail;
    trim;
    append_sync = Some (fun ~size ~data -> append_pos ~size ~data);
  }

(* --- shard-in-isolation parity probe (section 6.1) --- *)

let shard_in_isolation_probe ?(config = default_config) ~rate ~seconds ~size () =
  let lat = Stats.Reservoir.create () in
  let completed = ref 0 in
  Engine.run (fun () ->
      let fabric = Fabric.create ~link:config.link () in
      (* A lone shard whose primary acks as soon as replication to the
         backup is confirmed — no ordering layer involved. *)
      let mk name =
        Fabric.add_node fabric ~name ~send_overhead:config.rpc_overhead
          ~recv_overhead:config.rpc_overhead ()
      in
      let disk () =
        match config.shard_disk with
        | Lazylog.Config.Sata -> Disk.sata_ssd ()
        | Lazylog.Config.Nvme -> Disk.nvme_ssd ()
      in
      let primary = mk "iso.primary" and backup = mk "iso.backup" in
      let primary_ep = Rpc.endpoint fabric primary in
      let backup_ep = Rpc.endpoint fabric backup in
      let pstore = Flushed_store.create ~disk:(disk ()) () in
      let bstore = Flushed_store.create ~disk:(disk ()) () in
      let next = ref 0 in
      let service req =
        config.shard_base_ns + int_of_float (0.3 *. float_of_int (req_size req))
      in
      Rpc.set_service_time primary_ep service;
      Rpc.set_service_time backup_ep service;
      Rpc.set_handler backup_ep (fun ~src:_ req ~reply ->
          match req with
          | Replicate { lsn; record } ->
            Flushed_store.append bstore ~pos:lsn ~size:record.Lazylog.Types.size
              record;
            reply R_ok
          | _ -> failwith "iso backup");
      Rpc.set_handler primary_ep (fun ~src:_ req ~reply ->
          match req with
          | Append { record } ->
            let lsn = !next in
            incr next;
            Flushed_store.append pstore ~pos:lsn
              ~size:record.Lazylog.Types.size record;
            (match
               Rpc.call primary_ep ~dst:(Fabric.id backup)
                 ~size:(req_size (Replicate { lsn; record }))
                 (Replicate { lsn; record })
             with
            | R_ok -> ()
            | _ -> ());
            reply (R_gp lsn)
          | _ -> failwith "iso primary");
      let client_node = mk "iso.client" in
      let client_ep = Rpc.endpoint fabric client_node in
      let rng = Rng.create ~seed:11 in
      let stop_at = Engine.sec 1 * int_of_float (seconds *. 1e9) / 1_000_000_000 in
      let stop_at = max stop_at (Engine.ms 50) in
      let rec arrivals i =
        if Engine.now () < stop_at then begin
          Engine.spawn (fun () ->
              let t0 = Engine.now () in
              let record =
                Lazylog.Types.record
                  ~rid:{ Lazylog.Types.Rid.client = 0; seq = i }
                  ~size ()
              in
              match
                Rpc.call client_ep ~dst:(Fabric.id primary)
                  ~size:(req_size (Append { record }))
                  (Append { record })
              with
              | R_gp _ ->
                Stats.Reservoir.add lat (Engine.now () - t0);
                incr completed
              | _ -> ());
          Engine.sleep
            (Engine.us_f (Rng.exponential rng ~mean:(1e6 /. rate)));
          arrivals (i + 1)
        end
      in
      arrivals 0;
      Engine.at (stop_at + Engine.ms 20) (fun () -> Engine.stop ()));
  ( Stats.Reservoir.mean_us lat,
    float_of_int !completed /. seconds )
