(* The consumer half of streaming delivery.

   A subscriber owns the two pieces of state the exactly-once argument
   rests on:

   - [next], the durable delivery cursor: the position the application
     has consumed up to. Advanced only after a record is handed to the
     application, and modelled as surviving consumer crashes (a real
     consumer would write it alongside its output, e.g. in the same
     transaction). Every incoming position below [next] is a redelivered
     duplicate and is dropped; every ack carries [next] so the manager's
     cursor can only ever trail it.

   - [epoch], the incarnation brand: pushes from an older epoch (in
     flight across a re-attach or a manager recovery) are answered with
     a stale ack the manager discards. A newer epoch is adopted — the
     manager is the epoch authority.

   Push processing is serialized through a busy flag: a redelivered
   batch that overlaps one still being consumed must observe the final
   [next], not race it, or the dedup filter would double-deliver the
   overlap. Within a batch, records are consumed in ascending position
   order and no-op fillers advance the cursor without reaching the
   application, so delivery is in-order and gap-free by construction. *)

open Ll_sim
open Ll_net
open Lazylog
open Lazylog.Erwin_common

type t = {
  cluster : Erwin_common.t;
  sname : string;
  manager : Fabric.node_id;
  window : int;
  consume : Engine.time;  (* per-record application processing time *)
  on_record : (int -> Types.record -> unit) option;
  mutable node : (Proto.req, Proto.resp) Rpc.msg Fabric.node;
  mutable ep : (Proto.req, Proto.resp) Rpc.endpoint;
  mutable epoch : int;
  mutable next : int;  (* durable delivery cursor *)
  mutable busy : bool;
  free : Waitq.t;
  mutable incarnation : int;
  (* stats *)
  mutable delivered : int;
  mutable dup_skipped : int;
  mutable max_batch : int;
}

let node_id t = Fabric.id t.node
let name t = t.sname
let epoch t = t.epoch
let next t = t.next
let delivered t = t.delivered
let dup_skipped t = t.dup_skipped
let max_batch t = t.max_batch

let deliver t gp (r : Types.record) =
  if t.consume > 0 then Engine.sleep t.consume;
  if not (Types.is_no_op r) then begin
    if Probe.active () then
      Probe.emit (Probe.Sub_delivered { name = t.sname; pos = gp; rid = r.Types.rid });
    (match t.on_record with Some f -> f gp r | None -> ());
    t.delivered <- t.delivered + 1
  end;
  t.next <- gp + 1

let handle t (req : Proto.req) ~reply =
  match req with
  | Proto.St_push { epoch; records; _ } ->
    if List.length records > t.max_batch then
      t.max_batch <- List.length records;
    if epoch < t.epoch then
      (* A push from before my latest re-attach: its batch was rebuilt
         under the new epoch, answer with a stale ack (the manager drops
         it) and deliver nothing. *)
      Proto.answer reply (Proto.R_sub_ack { epoch; upto = t.next; credits = 0 })
    else begin
      if epoch > t.epoch then t.epoch <- epoch;
      (* Serialize with any batch still being consumed: the dedup filter
         below must see the final cursor. *)
      Waitq.await t.free (fun () -> not t.busy);
      t.busy <- true;
      List.iter
        (fun (gp, r) ->
          if gp < t.next then t.dup_skipped <- t.dup_skipped + 1
          else if gp = t.next then deliver t gp r
          (* gp > next would be a gap — the manager never sends one
             (batches are contiguous from its cursor, which trails
             [next]); drop it defensively rather than deliver out of
             order. *))
        records;
      t.busy <- false;
      Waitq.broadcast t.free;
      Proto.answer reply
        (Proto.R_sub_ack { epoch = t.epoch; upto = t.next; credits = t.window })
    end
  | _ -> failwith "subscriber: unexpected request"

let mk_node (cluster : Erwin_common.t) ~nm =
  let node =
    Fabric.add_node cluster.fabric ~name:nm
      ~send_overhead:cluster.cfg.Config.rpc_overhead
      ~recv_overhead:cluster.cfg.Config.rpc_overhead ()
  in
  (node, Rpc.endpoint cluster.fabric node)

let install_handler t =
  Rpc.set_handler t.ep (fun ~src:_ req ~reply -> handle t req ~reply)

let attach t =
  let epoch, _cursor =
    Client_core.subscribe_stream t.cluster t.ep ~manager:t.manager
      ~name:t.sname ~from:t.next ~window:t.window
  in
  if epoch > t.epoch then t.epoch <- epoch

let create (cluster : Erwin_common.t) ~manager ~name ?(from = 0)
    ?(window = 64) ?(consume = 0) ?on_record () =
  let node, ep = mk_node cluster ~nm:(Printf.sprintf "sub.%s" name) in
  let t =
    {
      cluster;
      sname = name;
      manager;
      window;
      consume;
      on_record;
      node;
      ep;
      epoch = 0;
      next = from;
      busy = false;
      free = Waitq.create ();
      incarnation = 0;
      delivered = 0;
      dup_skipped = 0;
      max_batch = 0;
    }
  in
  install_handler t;
  if Probe.active () then
    Probe.emit (Probe.Sub_registered { name; from });
  attach t;
  t

(* Simulated consumer crash: the fabric node dies (in-flight pushes and
   acks to/from it are lost), while [next] — the durable cursor — and
   the delivery statistics survive for the restart. *)
let crash t = Fabric.crash t.cluster.fabric t.node

let restart t =
  t.incarnation <- t.incarnation + 1;
  let node, ep =
    mk_node t.cluster ~nm:(Printf.sprintf "sub.%s.r%d" t.sname t.incarnation)
  in
  t.node <- node;
  t.ep <- ep;
  install_handler t;
  attach t
