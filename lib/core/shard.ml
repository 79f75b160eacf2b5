open Ll_sim
open Ll_net
open Ll_storage

type replica = {
  node : (Proto.req, Proto.resp) Rpc.msg Fabric.node;
  ep : (Proto.req, Proto.resp) Rpc.endpoint;
  disk : Disk.t;  (* the device behind store + journal (fault injection) *)
  store : Types.record Flushed_store.t;  (* bound records, by position *)
  journal : unit Flushed_store.t;
      (* staging journal: Erwin-st data writes are persisted (and charged
         to the device) here; binding later only updates the position
         index in memory *)
  mutable journal_pos : int;
  staging : (Types.Rid.t, Types.record * Engine.time) Hashtbl.t;
      (* each staged record and when it was staged, for the scrubber *)
  nooped : (Types.Rid.t, unit) Hashtbl.t;
  staging_watch : Waitq.t;
  map_log : int Mem_log.t;  (* position -> shard id *)
  (* Per-replica stable-gp mirror, one packed frontier per log: the
     primary's is authoritative for the shard; backups keep their own
     (fed by the primary's relay, by client stable hints, and by the
     stable piggybacked on forwarded reads) so they can serve bound
     positions without consulting the primary. One watch covers all
     logs — waiters re-check their own predicate. *)
  stable : Log_table.t;
  stable_watch : Waitq.t;
}

type t = {
  cfg : Config.t;
  fabric : (Proto.req, Proto.resp) Rpc.msg Fabric.t;
  sid : int;
  primary : replica;
  mutable backups : replica list;
  mutable demand_target : Fabric.node_id option;
      (* where Sr_order_demand goes (the background orderer's endpoint),
         when [cfg.read_demand] *)
}

let stable_for r ~log = Log_table.get r.stable log

let shard_id t = t.sid
let primary_id t = Fabric.id t.primary.node
let replica_ids t = List.map (fun r -> Fabric.id r.node) (t.primary :: t.backups)
let stable_gp_for t ~log = stable_for t.primary ~log
let stable_gp t = stable_gp_for t ~log:0
let set_demand_target t dst = t.demand_target <- dst
let read_local t pos = Flushed_store.read t.primary.store ~pos
let bound_positions t = Flushed_store.entries t.primary.store
let staged_count t = Hashtbl.length t.primary.staging

let replica_disk t i =
  let replicas = t.primary :: t.backups in
  (List.nth replicas (i mod List.length replicas)).disk

let make_disk cfg =
  match cfg.Config.shard_disk with
  | Config.Sata -> Disk.sata_ssd ()
  | Config.Nvme -> Disk.nvme_ssd ()

(* Move the bound records of [from]'s log at positions >= from back to
   staging and drop their map entries: recovery may rebind them at
   different positions (section 4.5's tail overwrite, realized
   logically). Scoped to that one log: the walk stops below the next
   log's base, so packed positions of other logs survive. A re-staged
   record is stamped now, so the orphan scrubber gives it a full age
   before it may drop it (a rebind may still be on its way). *)
let unbind_log r from =
  let log = Logid.log_of from in
  let upto =
    if log = Logid.max_logs - 1 then max_int else Logid.base ~log:(log + 1)
  in
  List.iter
    (fun (gp, (rec_ : Types.record)) ->
      if not (Types.is_no_op rec_) then
        Hashtbl.replace r.staging rec_.Types.rid (rec_, Engine.now ());
      Flushed_store.remove r.store ~pos:gp)
    (Flushed_store.entries_from r.store ~upto from);
  Mem_log.remove_range r.map_log ~from ~upto

(* One packed frontier per truncated log. Every push runs this, so the
   common no-truncate case allocates nothing (no partial application of
   [unbind_log]). *)
let rec apply_truncate r = function
  | [] -> ()
  | from :: rest ->
    unbind_log r from;
    apply_truncate r rest

(* [charged = true] pays the device for the record bytes (Erwin-m pushes,
   where this is the first time the shard sees the data); [charged =
   false] is an index-only bind of already-journaled bytes (Erwin-st). *)
let store_slots ?(charged = true) r slots =
  if charged then
    Flushed_store.append_batch r.store
      (List.map (fun (gp, (rec_ : Types.record)) -> (gp, rec_.Types.size, rec_)) slots)
  else
    List.iter (fun (gp, rec_) -> Flushed_store.set_mem r.store ~pos:gp rec_) slots

let journal_record r (record : Types.record) =
  let pos = r.journal_pos in
  r.journal_pos <- pos + 1;
  Flushed_store.append r.journal ~pos ~size:record.Types.size ()

let record_map r chunk =
  List.iter (fun (gp, sid) -> Mem_log.set r.map_log gp sid) chunk

(* The map entries at positions in [from, upto), ascending. *)
let map_chunk r ~from ~upto =
  let chunk = ref [] in
  for gp = upto - 1 downto from do
    if Mem_log.mem r.map_log gp then
      chunk := (gp, Mem_log.find r.map_log gp) :: !chunk
  done;
  !chunk

(* Resolve one Erwin-st binding on a replica that is expected to hold the
   staged record: wait [data_wait_timeout] for in-flight data, then no-op
   (section 5.4). Returns the bound record. *)
let resolve_binding cfg r rid =
  let found () = Hashtbl.mem r.staging rid in
  if not (found ()) then
    ignore
      (Waitq.await_timeout r.staging_watch
         ~timeout:cfg.Config.data_wait_timeout found
        : bool);
  match Hashtbl.find_opt r.staging rid with
  | Some (rec_, _) ->
    Hashtbl.remove r.staging rid;
    rec_
  | None ->
    Hashtbl.replace r.nooped rid ();
    Types.no_op

(* Probe points are primary-only: the primary's bindings are the
   authoritative position -> record map the invariants talk about. *)
let probe_truncate t truncate =
  if Probe.active () then
    (* Packed frontiers: the monitor recovers the log from the position. *)
    List.iter
      (fun from -> Probe.emit (Probe.Shard_truncated { shard = t.sid; from }))
      truncate

let probe_stored t slots =
  if Probe.active () then
    List.iter
      (fun (gp, (rec_ : Types.record)) ->
        Probe.emit
          (Probe.Shard_stored { shard = t.sid; pos = gp; rid = rec_.Types.rid }))
      slots

(* Read_served is emitted by whichever replica answers (primary or
   backup) — the read-agreement monitor checks every served record
   against the primary's bindings, which is exactly the cross-replica
   divergence backup reads could introduce. *)
let probe_read_served t records =
  if Probe.active () then
    List.iter
      (fun (gp, (rec_ : Types.record)) ->
        Probe.emit
          (Probe.Read_served { shard = t.sid; pos = gp; rid = rec_.Types.rid }))
      records

let note_stable r gp =
  if Log_table.merge r.stable (Logid.log_of gp) gp then
    Waitq.broadcast r.stable_watch

(* Position [p] is readable once its own log's frontier passes it. *)
let covered r positions =
  List.for_all (fun p -> stable_for r ~log:(Logid.log_of p) > p) positions

(* The log a read group belongs to, for same-log stable piggybacks
   (groups are log-homogeneous in practice; a mixed group piggybacks the
   highest position's log). *)
let read_log ~max_pos = if max_pos < 0 then 0 else Logid.log_of max_pos

(* Read-triggered eager binding (the lazy-ordering contract of sections
   4.2/5.2): a read parked beyond stable asks the sequencing layer to bind
   up to it now instead of waiting out the background cadence. Fire and
   forget, as a group with rounds that nothing joins — the reader itself
   keeps waiting on the stable watch and is woken by the resulting
   stable push. *)
let demand_bind t ~upto =
  match t.demand_target with
  | Some dst
    when t.cfg.Config.read_demand
         && upto > stable_for t.primary ~log:(read_log ~max_pos:(upto - 1)) ->
    let req = Proto.Sr_order_demand { upto } in
    ignore
      (Rpc.fan_out t.primary.ep [ dst ] ~round:(Engine.ms 5) ~tries:10
         ~size:(Proto.req_size req) req
        : (Proto.req, Proto.resp) Rpc.group)
  | _ -> ()

(* Send [req] to every backup as one group, retried on loss, and wait
   until each has answered or run out of tries. *)
let replicate t req =
  let dsts = List.map (fun b -> Fabric.id b.node) t.backups in
  let size = Proto.req_size req in
  let g = Rpc.fan_out t.primary.ep dsts ~round:(Engine.ms 10) ~tries:50 ~size req in
  ignore (Rpc.group_join g : bool);
  g

(* Erwin-st's data write, the same on the primary and every backup:
   stage the record and journal it. A rid the shard already no-oped is
   refused. *)
let data_write r (record : Types.record) ~reply =
  if Hashtbl.mem r.nooped record.rid then
    Proto.answer reply (Proto.R_append { ok = false; view = 0 })
  else begin
    (* A retry of an already-staged rid must not hit the device again. *)
    let fresh = not (Hashtbl.mem r.staging record.rid) in
    Hashtbl.replace r.staging record.rid (record, Engine.now ());
    Waitq.broadcast r.staging_watch;
    (* Durability: the staged bytes go to the device (with
       backpressure); the ack is sent once journaled. *)
    if fresh then journal_record r record;
    Proto.answer reply (Proto.R_append { ok = true; view = 0 })
  end

let handle_primary t ~src:_ (req : Proto.req) ~reply =
  let r = t.primary in
  match req with
  | Msh_push { truncate; slots } ->
    apply_truncate r truncate;
    probe_truncate t truncate;
    store_slots r slots;
    probe_stored t slots;
    (* The same push goes on to the backups. Retried on loss; replication
       by explicit position is idempotent. *)
    ignore (replicate t req : _ Rpc.group);
    Proto.answer reply Proto.R_ok
  | Ssh_data_write { record } -> data_write r record ~reply
  | Ssh_order { truncate; bindings; map_chunk } ->
    apply_truncate r truncate;
    probe_truncate t truncate;
    (* Idempotency under retried pushes: a position already bound must
       not be resolved again (its record left staging on the first
       pass, and re-resolving would wrongly no-op it). *)
    let bindings =
      List.filter
        (fun (gp, _) -> Flushed_store.read r.store ~pos:gp = None)
        bindings
    in
    let resolved =
      List.map (fun (gp, rid) -> (gp, rid, resolve_binding t.cfg r rid)) bindings
    in
    let slots = List.map (fun (gp, _, rec_) -> (gp, rec_)) resolved in
    store_slots ~charged:false r slots;
    probe_stored t slots;
    if Probe.active () then
      List.iter
        (fun (gp, rid, rec_) ->
          if Types.is_no_op rec_ then
            Probe.emit (Probe.Shard_nooped { shard = t.sid; pos = gp; rid }))
        resolved;
    record_map r map_chunk;
    let noops =
      List.filter_map
        (fun (_, rid, rec_) -> if Types.is_no_op rec_ then Some rid else None)
        resolved
    in
    let repl_req =
      Proto.Ssh_replicate_order
        { truncate;
          bindings = List.map (fun (gp, rid, _) -> (gp, rid)) resolved;
          noops;
          map_chunk }
    in
    let g = replicate t repl_req in
    (* Backfill records a backup could not find in its own staging. *)
    List.iteri
      (fun m b ->
        match Rpc.group_reply g m with
        | Some (Proto.R_missing { rids }) when rids <> [] ->
          let slots =
            List.filter_map
              (fun (gp, rid, rec_) ->
                if List.exists (Types.Rid.equal rid) rids then Some (gp, rec_)
                else None)
              resolved
          in
          let bf = Proto.Ssh_backfill { slots } in
          ignore
            (Rpc.call r.ep ~dst:(Fabric.id b.node) ~size:(Proto.req_size bf) bf)
        | _ -> ())
      t.backups;
    Proto.answer reply Proto.R_ok
  | Sh_read { positions; stable_hint } ->
    (* The hint repairs a stable mirror that missed a (lossy, one-way)
       Sh_set_stable: the client would not ask for unstable positions. *)
    note_stable r stable_hint;
    let max_pos = List.fold_left max (-1) positions in
    if not (covered r positions) then begin
      demand_bind t ~upto:(max_pos + 1);
      Waitq.await r.stable_watch (fun () -> covered r positions)
    end;
    let records = Flushed_store.read_many r.store positions in
    probe_read_served t records;
    Proto.answer reply
      (Proto.R_records
         { records; stable = stable_for r ~log:(read_log ~max_pos) })
  | Ssh_get_map { from; count; stable_hint } ->
    note_stable r stable_hint;
    let log = read_log ~max_pos:from in
    if stable_for r ~log <= from then begin
      demand_bind t ~upto:(from + 1);
      Waitq.await r.stable_watch (fun () -> stable_for r ~log > from)
    end;
    let upto = min (stable_for r ~log) (from + count) in
    Proto.answer reply
      (Proto.R_map
         { chunk = map_chunk r ~from ~upto; stable = stable_for r ~log })
  | Sh_set_stable { gp } ->
    note_stable r gp;
    (* Backup replicas serve reads only below their own mirror: relay the
       (still lossy, one-way) stable advance so they track the primary
       instead of lagging until the next piggyback repair. *)
    if t.cfg.Config.replica_reads then
      List.iter
        (fun b ->
          Rpc.send_oneway r.ep ~dst:(Fabric.id b.node)
            (Proto.Sh_set_stable { gp }))
        t.backups;
    Proto.answer reply Proto.R_ok
  | Sh_trim { upto } ->
    Flushed_store.trim r.store upto;
    List.iter
      (fun b -> Rpc.send_oneway r.ep ~dst:(Fabric.id b.node) (Proto.Sh_trim { upto }))
      t.backups;
    Proto.answer reply Proto.R_ok
  | Sr_append _ | Sr_check_tail _ | Sr_seal _
  | Sr_get_state | Sr_install_view _ | Sr_wait_ordered _ | Sr_order_demand _
  | Ssh_replicate_order _ | Ssh_backfill _ | St_subscribe _ | St_push _
  | St_cursor_sync _ | St_cursor_fetch ->
    failwith "shard primary: unexpected request"

(* A backup that cannot serve a read itself (position not yet covered by
   its stable mirror) forwards the request to the primary and relays the
   answer, max-merging the piggybacked stable into its own mirror. On
   exhaustion it fails the read explicitly ([R_missing]) so the client
   retries on another replica instead of seeing an empty log. *)
let forward_to_primary t r req ~reply ~on_resp =
  let g =
    Rpc.fan_out r.ep [ primary_id t ] ~round:(Engine.ms 50) ~tries:2
      ~size:(Proto.req_size req) req
  in
  ignore (Rpc.group_join g : bool);
  match Rpc.group_reply g 0 with
  | Some resp ->
    on_resp resp;
    Proto.answer reply resp
  | None -> Proto.answer reply (Proto.R_missing { rids = [] })

let handle_backup t r ~src:_ (req : Proto.req) ~reply =
  match req with
  | Msh_push { truncate; slots } ->
    apply_truncate r truncate;
    store_slots r slots;
    Proto.answer reply Proto.R_ok
  | Ssh_data_write { record } -> data_write r record ~reply
  | Ssh_replicate_order { truncate; bindings; noops; map_chunk } ->
    apply_truncate r truncate;
    let missing = ref [] in
    let slots =
      List.filter_map
        (fun (gp, rid) ->
          if List.exists (Types.Rid.equal rid) noops then begin
            Hashtbl.replace r.nooped rid ();
            Hashtbl.remove r.staging rid;
            Some (gp, Types.no_op)
          end
          else
            match Hashtbl.find_opt r.staging rid with
            | Some (rec_, _) ->
              Hashtbl.remove r.staging rid;
              Some (gp, rec_)
            | None ->
              missing := rid :: !missing;
              None)
        bindings
    in
    store_slots ~charged:false r slots;
    record_map r map_chunk;
    if !missing = [] then Proto.answer reply Proto.R_ok
    else Proto.answer reply (Proto.R_missing { rids = !missing })
  | Ssh_backfill { slots } ->
    (* Backfilled bytes are new to this replica: charge them. *)
    store_slots r slots;
    Proto.answer reply Proto.R_ok
  | Sh_trim { upto } ->
    Flushed_store.trim r.store upto;
    Proto.answer reply Proto.R_ok
  | Sh_set_stable { gp } ->
    note_stable r gp;
    Proto.answer reply Proto.R_ok
  | Sh_read { positions; stable_hint } ->
    note_stable r stable_hint;
    let max_pos = List.fold_left max (-1) positions in
    if covered r positions then begin
      (* Every requested position is bound here: serve from the local
         store, scaling read throughput with the replica count. *)
      let records = Flushed_store.read_many r.store positions in
      probe_read_served t records;
      Proto.answer reply
        (Proto.R_records
           { records; stable = stable_for r ~log:(read_log ~max_pos) })
    end
    else
      forward_to_primary t r req ~reply ~on_resp:(function
        | Proto.R_records { stable; _ } -> note_stable r stable
        | _ -> ())
  | Ssh_get_map { from; count; stable_hint } ->
    note_stable r stable_hint;
    let log = read_log ~max_pos:from in
    if stable_for r ~log > from then begin
      let upto = min (stable_for r ~log) (from + count) in
      Proto.answer reply
        (Proto.R_map
           { chunk = map_chunk r ~from ~upto; stable = stable_for r ~log })
    end
    else
      forward_to_primary t r req ~reply ~on_resp:(function
        | Proto.R_map { stable; _ } -> note_stable r stable
        | _ -> ())
  | Sr_append _ | Sr_check_tail _ | Sr_seal _
  | Sr_get_state | Sr_install_view _ | Sr_wait_ordered _ | Sr_order_demand _
  | Ssh_order _ | St_subscribe _ | St_push _ | St_cursor_sync _
  | St_cursor_fetch ->
    failwith "shard backup: unexpected request"

(* The bare request path (Rpc.set_bare_handler): a request this guard
   finds able to finish without suspending runs [handle_primary] /
   [handle_backup] with no fiber; the rest decline and run the same
   handler on a fiber, in the same event. The guard changes nothing but
   the replica's stable mirror, merging the request's hint as the
   handler's own first action does (the handler's merge is then a
   no-op).

   What may suspend: a journal or store append at the dirty limit
   ([Flushed_store] backpressure), a read or map fetch past the stable
   mirror (the primary waits for stable, a backup forwards), and the
   primary's Msh_push and Ssh_order, which join replication. *)
let runs_bare r (req : Proto.req) =
  match req with
  | Ssh_data_write { record } ->
    Hashtbl.mem r.nooped record.rid
    || Hashtbl.mem r.staging record.rid
    || Flushed_store.has_room r.journal
  | Sh_set_stable _ | Sh_trim _ -> true
  | Sh_read { positions; stable_hint } ->
    note_stable r stable_hint;
    covered r positions
  | Ssh_get_map { from; stable_hint; _ } ->
    note_stable r stable_hint;
    stable_for r ~log:(read_log ~max_pos:from) > from
  | _ -> false

(* A backup also binds and stores without joining anyone. *)
let backup_runs_bare r (req : Proto.req) =
  match req with
  | Ssh_replicate_order _ -> true
  | Msh_push _ | Ssh_backfill _ -> Flushed_store.has_room r.store
  | _ -> runs_bare r req

let service_time cfg (req : Proto.req) =
  cfg.Config.shard_base_ns
  + int_of_float (0.3 *. float_of_int (Proto.req_size req))

let make_replica cfg fabric ~name =
  let node =
    Fabric.add_node fabric ~name ~send_overhead:cfg.Config.rpc_overhead
      ~recv_overhead:cfg.Config.rpc_overhead ()
  in
  let ep = Rpc.endpoint fabric node in
  Rpc.set_service_time ep (service_time cfg);
  (* One device per replica, shared by the bound store and the staging
     journal. *)
  let disk = make_disk cfg in
  {
    node;
    ep;
    disk;
    store =
      Flushed_store.create ~disk
        ~dirty_limit_bytes:cfg.Config.dirty_limit_bytes ();
    journal =
      Flushed_store.create ~disk
        ~dirty_limit_bytes:cfg.Config.dirty_limit_bytes ();
    journal_pos = 0;
    staging = Hashtbl.create 256;
    nooped = Hashtbl.create 64;
    staging_watch = Waitq.create ();
    map_log = Mem_log.create ();
    stable = Log_table.create ~default:(fun log -> Logid.base ~log);
    stable_watch = Waitq.create ();
  }

let install_backup_handler t b =
  Rpc.set_handler b.ep (handle_backup t b);
  Rpc.set_bare_handler b.ep (fun ~src req ~reply ->
      if backup_runs_bare b req then begin
        handle_backup t b ~src req ~reply;
        true
      end
      else false)

let create ~cfg ~fabric ~shard_id =
  let primary =
    make_replica cfg fabric ~name:(Printf.sprintf "shard%d.primary" shard_id)
  in
  let backups =
    List.init cfg.Config.shard_backup_count (fun i ->
        make_replica cfg fabric
          ~name:(Printf.sprintf "shard%d.backup%d" shard_id i))
  in
  let t = { cfg; fabric; sid = shard_id; primary; backups; demand_target = None } in
  Rpc.set_handler primary.ep (handle_primary t);
  Rpc.set_bare_handler primary.ep (fun ~src req ~reply ->
      if runs_bare primary req then begin
        handle_primary t ~src req ~reply;
        true
      end
      else false);
  List.iter (install_backup_handler t) backups;
  t

(* Section 5.4: "Failures within a shard are handled by replacing the
   failed replica with a new one after copying both ordered and unordered
   records from a live node to the new one." Two copy passes — a bulk
   pass, then a delta pass after the swap — so pushes racing the copy are
   not lost (binding by explicit position is idempotent). *)
let replace_backup t ~index =
  let fresh =
    make_replica t.cfg t.fabric
      ~name:(Printf.sprintf "shard%d.backup%d'" t.sid index)
  in
  install_backup_handler t fresh;
  let src = t.primary in
  let copy ordered =
    let bytes =
      List.fold_left
        (fun acc (_, (r : Types.record)) -> acc + r.Types.size)
        0 ordered
    in
    (* Bulk state transfer over the wire. *)
    Engine.sleep
      (Engine.us 500
      + int_of_float (t.cfg.Config.link.Fabric.per_byte_ns *. float_of_int bytes)
      );
    Flushed_store.append_batch fresh.store
      (List.map
         (fun (gp, (r : Types.record)) -> (gp, r.Types.size, r))
         ordered)
  in
  copy (Flushed_store.entries src.store);
  (* Unordered (staged) records and the map log come along too. *)
  Hashtbl.iter (fun rid e -> Hashtbl.replace fresh.staging rid e) src.staging;
  Hashtbl.iter (fun rid () -> Hashtbl.replace fresh.nooped rid ()) src.nooped;
  Mem_log.iter src.map_log ~from:0 (Mem_log.set fresh.map_log);
  (* The copied prefix is readable on the fresh replica right away. *)
  Log_table.fold
    (fun log g () -> Log_table.set fresh.stable log g)
    src.stable ();
  (* Swap in, then catch up on anything pushed during the bulk copy. The
     delta pass copies whatever the bulk pass missed, by membership:
     packed positions are not monotone across logs, and a late push can
     land below the last copied position, so "everything past it" would
     under-cover. *)
  t.backups <- List.mapi (fun i b -> if i = index then fresh else b) t.backups;
  copy
    (List.filter
       (fun (gp, _) -> Flushed_store.read fresh.store ~pos:gp = None)
       (Flushed_store.entries src.store))

let backup_ids t = List.map (fun b -> Fabric.id b.node) t.backups

let start_scrubber t ~age ~every =
  let scrub r =
    let doomed =
      Hashtbl.fold
        (fun rid (_, at) acc ->
          if Engine.now () - at > age then rid :: acc else acc)
        r.staging []
    in
    List.iter (Hashtbl.remove r.staging) doomed
  in
  Engine.spawn ~name:(Printf.sprintf "shard%d.scrubber" t.sid) (fun () ->
      let rec loop () =
        Engine.sleep every;
        List.iter scrub (t.primary :: t.backups);
        loop ()
      in
      loop ())
