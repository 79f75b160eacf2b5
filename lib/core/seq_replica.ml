open Ll_sim
open Ll_net

type t = {
  cfg : Config.t;
  node : (Proto.req, Proto.resp) Rpc.msg Fabric.node;
  ep : (Proto.req, Proto.resp) Rpc.endpoint;
  rname : string;
  slog : Seq_log.t;
  mutable view : int;
  mutable sealed : bool;
  (* appendSync support: rids appended with [track = true] get their bound
     position remembered so Sr_wait_ordered can answer. *)
  tracked : (Types.Rid.t, unit) Hashtbl.t;
  bound_gp : (Types.Rid.t, int) Hashtbl.t;
  bound_watch : Waitq.t;
  (* Replicated subscription cursors (lib/stream): name -> (epoch, cursor).
     Max-merged on cursor, so lost or reordered one-way syncs only lag the
     durable floor. Deliberately not cleared on view install — the cursor
     is client-progress state, not view state. *)
  sub_cursors : (string, int * int) Hashtbl.t;
  (* Weighted-fair ingress scheduler, present only when [fair_ingress] is
     set (otherwise the endpoint keeps the default FIFO discipline,
     byte-identically). *)
  mutable fair : Ingress.t option;
}

let node t = t.node
let endpoint t = t.ep
let node_id t = Fabric.id t.node
let name t = t.rname
let log t = t.slog
let view t = t.view
let is_sealed t = t.sealed
let sub_cursor t name = Hashtbl.find_opt t.sub_cursors name
let ingress t = t.fair

let record_bindings t slots =
  List.iter
    (fun (gp, rid) ->
      if Hashtbl.mem t.tracked rid then begin
        Hashtbl.remove t.tracked rid;
        Hashtbl.replace t.bound_gp rid gp
      end)
    slots;
  Waitq.broadcast t.bound_watch

let apply_gc t ~frontiers ~slots =
  Seq_log.remove_ordered t.slog (List.map snd slots);
  Log_table.set_packed (Seq_log.frontiers t.slog) frontiers;
  record_bindings t slots

let rec track_all t = function
  | [] -> ()
  | rid :: rest ->
    Hashtbl.replace t.tracked rid ();
    track_all t rest

let handle t ~src:_ (req : Proto.req) ~reply =
  match req with
  | Sr_append { view; entries; tracked } ->
    (* One view/seal check and one duplicate-filter pass for all the
       entries. All-or-nothing in this view: a seal or view change while
       they wait for capacity fails every entry (the client retries;
       replicas that already accepted them filter the duplicates). *)
    if view <> t.view || t.sealed then
      Proto.answer reply (Proto.R_append { ok = false; view = t.view })
    else begin
      track_all t tracked;
      let ok =
        Seq_log.append_or_wait t.slog entries ~cancel:(fun () ->
            t.sealed || view <> t.view)
      in
      Proto.answer reply (Proto.R_append { ok; view = t.view })
    end
  | Sr_check_tail { view; log } ->
    if view <> t.view || t.sealed then
      Proto.answer reply (Proto.R_tail { ok = false; tail = 0 })
    else
      (* Per-log tail: that log's frontier plus its own live entries,
         reported as a per-log position (the caller reasons within one
         log, not across the packed keyspace). *)
      Proto.answer reply
        (Proto.R_tail
           {
             ok = true;
             tail =
               Logid.pos_of (Seq_log.last_ordered_gp t.slog ~log)
               + Seq_log.live_count_for t.slog ~log;
           })
  | Sr_seal { view } ->
    (* Idempotent; sealing an already-newer view is a stale message. *)
    if view >= t.view then begin
      t.sealed <- true;
      Seq_log.kick t.slog
    end;
    Proto.answer reply Proto.R_ok
  | Sr_get_state ->
    Proto.answer reply
      (Proto.R_state
         {
           frontiers = Log_table.to_list (Seq_log.frontiers t.slog);
           entries = Seq_log.unordered t.slog;
         })
  | Sr_install_view { new_view; _ } when new_view <= t.view ->
    (* A resend whose first ack was lost: applying it again would clear
       the entries accepted since, in the view it installed. *)
    Proto.answer reply Proto.R_ok
  | Sr_install_view { new_view; frontiers; flushed } ->
    Seq_log.clear t.slog;
    Seq_log.mark_ordered t.slog (List.map snd flushed);
    Log_table.reset (Seq_log.frontiers t.slog);
    Log_table.set_packed (Seq_log.frontiers t.slog) frontiers;
    record_bindings t flushed;
    t.view <- new_view;
    t.sealed <- false;
    Seq_log.kick t.slog;
    if Probe.active () then
      Probe.emit
        (Probe.View_installed { replica = Fabric.id t.node; view = new_view });
    Proto.answer reply Proto.R_ok
  | Sr_wait_ordered { rid } ->
    Waitq.await t.bound_watch (fun () -> Hashtbl.mem t.bound_gp rid);
    Proto.answer reply (Proto.R_gp { gp = Hashtbl.find t.bound_gp rid })
  | St_cursor_sync { name; epoch; cursor } ->
    (* One-way from the subscription manager. Max-merge: a newer epoch
       always wins (the cursor may legitimately regress across a manager
       recovery that re-seeds from a lagging survivor); within an epoch
       only a larger cursor advances the floor. *)
    (match Hashtbl.find_opt t.sub_cursors name with
    | Some (e, c) when epoch < e || (epoch = e && cursor <= c) -> ()
    | _ -> Hashtbl.replace t.sub_cursors name (epoch, cursor));
    Proto.answer reply Proto.R_ok
  | St_cursor_fetch ->
    let cursors =
      Hashtbl.fold (fun name (e, c) acc -> (name, e, c) :: acc) t.sub_cursors []
    in
    Proto.answer reply (Proto.R_cursors { cursors })
  | Sr_order_demand _ | Sh_set_stable _ | Sh_read _ | Sh_trim _ | Msh_push _
  | Ssh_data_write _ | Ssh_order _ | Ssh_replicate_order _ | Ssh_backfill _
  | Ssh_get_map _ | St_subscribe _ | St_push _ ->
    failwith (t.rname ^ ": shard request sent to a sequencing replica")

(* The bare request path (Rpc.set_bare_handler): an append the view check
   refuses, or whose entries fit the log now, is answered without a
   fiber. An append that must wait for capacity, and every other request,
   goes to [handle] on a fiber, untouched. *)
let handle_bare t ~src:_ (req : Proto.req) ~reply =
  match req with
  | Sr_append { view; entries; tracked } ->
    if view <> t.view || t.sealed then begin
      Proto.answer reply (Proto.R_append { ok = false; view = t.view });
      true
    end
    else if Seq_log.try_admit t.slog entries then begin
      track_all t tracked;
      Proto.answer reply (Proto.R_append { ok = true; view = t.view });
      true
    end
    else false
  | _ -> false

let rec entries_bytes acc = function
  | [] -> acc
  | e :: rest -> entries_bytes (acc + Types.entry_wire_size e) rest

let service_time cfg (req : Proto.req) =
  match req with
  | Sr_append { entries; _ } ->
    (* One base charge per request, then per-byte work plus a small
       per-entry cost for each entry past the first: one entry costs
       what a lone record always has, and group commit amortizes the
       base. *)
    cfg.Config.seq_base_ns
    + (50 * (List.length entries - 1))
    + int_of_float
        (cfg.Config.seq_per_byte_ns
        *. float_of_int (entries_bytes 0 entries))
  | _ -> cfg.Config.seq_base_ns

let create ~cfg ~fabric ~name:rname =
  let node =
    Fabric.add_node fabric ~name:rname
      ~send_overhead:cfg.Config.rpc_overhead
      ~recv_overhead:cfg.Config.rpc_overhead ()
  in
  let ep = Rpc.endpoint fabric node in
  let t =
    {
      cfg;
      node;
      ep;
      rname;
      slog = Seq_log.create ~capacity:cfg.Config.seq_capacity;
      view = 0;
      sealed = false;
      tracked = Hashtbl.create 64;
      bound_gp = Hashtbl.create 64;
      bound_watch = Waitq.create ();
      sub_cursors = Hashtbl.create 8;
      fair = None;
    }
  in
  Rpc.set_service_time ep (service_time cfg);
  Rpc.set_handler ep (handle t);
  Rpc.set_bare_handler ep (handle_bare t);
  Option.iter
    (fun params ->
      t.fair <- Some (Ingress.install params ~view:(fun () -> t.view) ep))
    cfg.Config.fair_ingress;
  t
