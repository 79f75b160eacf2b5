(* The per-cluster subscription manager (DESIGN.md section 13).

   One manager process per cluster owns every named subscription: a
   durable cursor (the next position to push), the consumer's current
   endpoint and credit grant, and an epoch that brands every push so
   stale in-flight traffic from before a re-attach or a manager recovery
   is recognizable on both ends.

   Delivery is server-initiated push off the stable tail. Per
   subscription one pump fiber runs a strict loop: when the cursor is
   below stable-gp it fetches the next batch through the ordinary read
   path (so only bound, stable records are ever pushed), sends one
   [St_push], and waits for the ack; when the cursor has caught up with
   stable-gp it demands eager binding from the orderer (the same
   [Sr_order_demand] path a parked tail read uses, PR 4) and parks on
   the stable watch. One batch in flight per subscription, never larger
   than the consumer's remaining credits — the flow-control window is
   enforced here, at the sender.

   Exactly-once composes from three pieces, each individually weaker:
   - at-least-once: a push whose ack does not arrive within
     [push_timeout] is redelivered verbatim until some ack for the
     current epoch lands;
   - dedup: the consumer filters positions below its own durable [next]
     and acks cumulatively with that [next], so the manager's cursor
     jumps over any redelivered prefix;
   - durable floor: every acked cursor is replicated one-way to all
     sequencing replicas ([St_cursor_sync], max-merged there). After a
     view change the manager rebuilds from the maximum surviving
     replicated cursor and bumps the epoch — modelling a manager
     failover — and the at-least-once/dedup pair absorbs the regressed
     window. The replicated floor never exceeds the consumer's durable
     [next], so recovery can only redeliver, never skip. *)

open Ll_sim
open Ll_net
open Lazylog
open Lazylog.Erwin_common

(* Records per [St_push] batch, and how long a push waits for its ack
   before the batch is redelivered. *)
let push_max = 32
let push_timeout = Engine.ms 2

type sub = {
  sname : string;
  mutable epoch : int;
  mutable cursor : int;  (* next position to push (acked frontier) *)
  mutable endpoint : Fabric.node_id;
  mutable credits : int;  (* consumer's last advertised window *)
  mutable registered_from : int;
  (* stats *)
  mutable pushes : int;
  mutable redeliveries : int;
}

type t = {
  cluster : Erwin_common.t;
  ep : (Proto.req, Proto.resp) Rpc.endpoint;
  subs : (string, sub) Hashtbl.t;
  wake : Waitq.t;  (* stable advance, attach, recovery *)
  fetch : int list -> (int * Types.record) list;
  mutable recoveries : int;
}

let endpoint_id t = Rpc.endpoint_id t.ep
let find t name = Hashtbl.find_opt t.subs name
let cursor_of t name = Option.map (fun s -> s.cursor) (find t name)
let epoch_of t name = Option.map (fun s -> s.epoch) (find t name)
let pushes t name = match find t name with Some s -> s.pushes | None -> 0

let redeliveries t name =
  match find t name with Some s -> s.redeliveries | None -> 0

let recoveries t = t.recoveries

(* Ask the orderer to bind up to [upto] now instead of waiting out the
   lazy cadence — same fire-and-forget idiom as a shard's parked read
   (Shard.demand_bind): a group with rounds that nothing joins.
   Idempotent and cheap to repeat: the orderer max-merges. *)
let demand t ~upto =
  match t.cluster.orderer_node with
  | Some dst ->
    let req = Proto.Sr_order_demand { upto } in
    ignore
      (Rpc.fan_out t.ep [ dst ] ~round:(Engine.ms 5) ~tries:10
         ~size:(Proto.req_size req) req
        : (Proto.req, Proto.resp) Rpc.group)
  | None -> ()

(* Replicate the acked cursor to every sequencing replica. One-way and
   unacknowledged by design: receivers max-merge, so a lost sync only
   lags the durable floor (bounded by redelivery after a recovery). *)
let sync_cursor t sub =
  let req =
    Proto.St_cursor_sync
      { name = sub.sname; epoch = sub.epoch; cursor = sub.cursor }
  in
  List.iter
    (fun r -> Rpc.send_oneway t.ep ~dst:(Seq_replica.node_id r) req)
    t.cluster.replicas

(* One push round: fetch [min credits push_max] stable records at the
   cursor and deliver them, redelivering on ack timeout. Returns when
   some current-epoch ack advanced the cursor, or when the epoch moved
   (re-attach / recovery invalidated the batch). *)
let push_round t sub =
  let epoch0 = sub.epoch in
  let n =
    min (min sub.credits push_max) (t.cluster.stable_gp - sub.cursor)
  in
  if n > 0 then begin
    let positions = List.init n (fun i -> sub.cursor + i) in
    let records = t.fetch positions in
    (* The fetch blocks (reads park below stable, so briefly); anything
       can have happened meanwhile. *)
    let rec send () =
      if sub.epoch = epoch0 then begin
        sub.pushes <- sub.pushes + 1;
        let req =
          Proto.St_push { name = sub.sname; epoch = epoch0; records }
        in
        match
          Rpc.call_timeout t.ep ~dst:sub.endpoint
            ~size:(Proto.req_size req) ~timeout:push_timeout req
        with
        | Some (Proto.R_sub_ack { epoch; upto; credits })
          when epoch = sub.epoch ->
          (* Cumulative ack: [upto] is the consumer's durable next, which
             can run ahead of this batch when dedup filtered a
             redelivered prefix. *)
          if upto > sub.cursor then sub.cursor <- upto;
          sub.credits <- credits;
          sync_cursor t sub
        | Some _ ->
          (* Ack from a previous incarnation (epoch moved while the push
             was in flight): drop it, the pump recomputes. *)
          ()
        | None ->
          (* Lost push or lost ack — indistinguishable, and it does not
             matter: redeliver the identical batch, the consumer dedups
             by position. *)
          sub.redeliveries <- sub.redeliveries + 1;
          send ()
      end
    in
    send ()
  end

let pump t sub =
  Engine.spawn ~name:(Printf.sprintf "sub-manager.pump.%s" sub.sname)
    (fun () ->
      let rec loop () =
        if sub.cursor < t.cluster.stable_gp && sub.credits > 0 then
          push_round t sub
        else begin
          (* Caught up (or throttled): demand eager binding past the
             cursor so the next appends do not wait out the lazy ordering
             cadence, then park on the wake watch. The bounded wait
             re-demands — covering a lost demand and appends that arrived
             after the orderer judged the last one inert. *)
          demand t ~upto:(sub.cursor + push_max);
          ignore
            (Waitq.await_timeout t.wake ~timeout:(Engine.ms 1) (fun () ->
                 sub.cursor < t.cluster.stable_gp && sub.credits > 0)
              : bool)
        end;
        loop ()
      in
      loop ())

let handle t ~src:_ (req : Proto.req) ~reply =
  match req with
  | Proto.St_subscribe { name; endpoint; from; window } -> (
    match Hashtbl.find_opt t.subs name with
    | Some sub ->
      (* Re-attach (consumer restart): keep the cursor — the consumer's
         own durable [next] plus dedup decide what is actually new — but
         open a fresh epoch so in-flight pushes to the old incarnation
         die stale. *)
      sub.endpoint <- endpoint;
      sub.credits <- window;
      sub.epoch <- sub.epoch + 1;
      Waitq.broadcast t.wake;
      Proto.answer reply (Proto.R_sub { epoch = sub.epoch; cursor = sub.cursor })
    | None ->
      let sub =
        {
          sname = name;
          epoch = 1;
          cursor = from;
          endpoint;
          credits = window;
          registered_from = from;
          pushes = 0;
          redeliveries = 0;
        }
      in
      Hashtbl.replace t.subs name sub;
      pump t sub;
      Proto.answer reply (Proto.R_sub { epoch = sub.epoch; cursor = sub.cursor }))
  | _ -> failwith "sub-manager: unexpected request"

(* View-change recovery: rebuild every cursor from the replicated floor
   on the surviving replicas, as a restarted manager would have to. The
   recovered cursor can trail both the consumer's durable [next] and the
   pre-recovery in-memory cursor (syncs are lossy one-ways) — the
   regressed window is redelivered and dedup-filtered, which is exactly
   the at-least-once/dedup contract, now exercised rather than assumed. *)
let recover t =
  let g =
    Rpc.fan_out t.ep
      (List.map Seq_replica.node_id t.cluster.replicas)
      ~round:(Engine.ms 5) ~tries:5
      ~size:(Proto.req_size Proto.St_cursor_fetch) Proto.St_cursor_fetch
  in
  ignore (Rpc.group_join g : bool);
  let fetched =
    List.concat
      (List.init (List.length t.cluster.replicas) (fun m ->
           match Rpc.group_reply g m with
           | Some (Proto.R_cursors { cursors }) -> cursors
           | Some _ | None -> []))
  in
  Hashtbl.iter
    (fun name sub ->
      let floor =
        List.fold_left
          (fun acc (n, _, c) -> if n = name then max acc c else acc)
          sub.registered_from fetched
      in
      sub.cursor <- floor;
      sub.epoch <- sub.epoch + 1)
    t.subs;
  t.recoveries <- t.recoveries + 1;
  Waitq.broadcast t.wake

let start (cluster : Erwin_common.t) =
  let ep = new_endpoint cluster ~name:"sub-manager" in
  let fetch =
    match cluster.mode with
    | M ->
      let rr = ref 1 in
      fun positions ->
        Client_core.read_grouped ~rr cluster ep
          ~shard_of:(shard_of_position cluster) positions
    | St -> Erwin_st.reader cluster ep ~rr0:1
  in
  let t =
    {
      cluster;
      ep;
      subs = Hashtbl.create 8;
      wake = Waitq.create ();
      fetch;
      recoveries = 0;
    }
  in
  Rpc.set_handler ep (handle t);
  (* Push trigger: every stable advance of log 0, the log subscriptions
     read, wakes the pumps. The hook is the only piece that runs outside
     an opt-in code path, and it is [None] unless a manager was
     started. *)
  cluster.on_stable <-
    Some (fun gp -> if Logid.log_of gp = 0 then Waitq.broadcast t.wake);
  (* Failover model: every view change restarts the manager's cursor
     state from the replicated floor. *)
  Engine.spawn ~name:"sub-manager.recovery" (fun () ->
      let rec watch last =
        Waitq.await cluster.view_changed (fun () -> cluster.view > last);
        let v = cluster.view in
        recover t;
        watch v
      in
      watch cluster.view);
  t
