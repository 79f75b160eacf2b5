open Ll_sim

(* Weighted-fair ingress for a sequencing replica (multi-log fabric).

   The default RPC discipline serves requests FIFO in arrival order, so
   one tenant arriving 50x faster than everyone else owns 98% of the
   replica's CPU and every other tenant's append latency inflates behind
   its queue. This scheduler takes ownership of data-plane appends at the
   demux ([Rpc.set_ingress]) and divides the replica's service capacity
   by configured weight instead of arrival aggression:

   - admission: a per-tenant queue bound ([queue_bound]). An arrival
     finding its tenant's queue full is shed with an immediate
     failed-append reply — no service time spent — and the client's
     ordinary retry/backoff path absorbs it.
   - service: deficit round robin over the per-tenant queues. Each round
     a tenant's deficit grows by [quantum * weight] nanoseconds of
     service credit and it drains queued requests (through [Rpc.serve],
     so the modeled CPU charge is identical to the default path) while
     the credit covers their cost. Cost left over carries to its next
     round; an emptied queue forfeits it.

   Control-plane traffic (tail checks, ordering waits, seals, view
   installs, cursor syncs) is one FIFO class served ahead of the tenant
   queues on the same fiber: the replica has a single CPU, so a request
   that arrives during an append's service starts only when that service
   ends. *)

type tenant = {
  log : int;
  weight : int;
  queue : (int * (unit -> unit)) Queue.t;  (* (service cost, serve thunk) *)
  mutable in_active : bool;  (* member of the DRR round (or being drained) *)
  mutable deficit : int;  (* carried service credit, ns *)
  mutable admitted : int;
  mutable shed : int;
}

type t = {
  params : Config.ingress;
  replica : int;  (* fabric node id, for probe events *)
  tenants : (int, tenant) Hashtbl.t;
  active : int Queue.t;  (* DRR round: logs with queued work *)
  control : (unit -> unit) Queue.t;  (* control-plane serve thunks, FIFO *)
  work : Waitq.t;
}

let weight_of (params : Config.ingress) log =
  match List.assoc_opt log params.Config.weights with
  | Some w when w > 0 -> w
  | _ -> 1

let tenant t log =
  match Hashtbl.find_opt t.tenants log with
  | Some ten -> ten
  | None ->
    let ten =
      {
        log;
        weight = weight_of t.params log;
        queue = Queue.create ();
        in_active = false;
        deficit = 0;
        admitted = 0;
        shed = 0;
      }
    in
    Hashtbl.add t.tenants log ten;
    ten

let enqueue t ten cost thunk =
  Queue.push (cost, thunk) ten.queue;
  ten.admitted <- ten.admitted + 1;
  if not ten.in_active then begin
    ten.in_active <- true;
    Queue.push ten.log t.active;
    Waitq.broadcast t.work
  end

let serve_control t =
  while not (Queue.is_empty t.control) do
    (Queue.pop t.control) ()
  done

(* One service fiber per endpoint, the replica's single CPU (each thunk
   blocks for its service time): serve the control plane first, then
   replenish the head tenant's deficit, drain its queue while the credit
   lasts, still serving any control request that arrived first, and
   rotate. *)
let drain_loop t () =
  let rec loop () =
    Waitq.await t.work (fun () ->
        not (Queue.is_empty t.active && Queue.is_empty t.control));
    serve_control t;
    if not (Queue.is_empty t.active) then begin
      let log = Queue.pop t.active in
      let ten = Hashtbl.find t.tenants log in
      ten.deficit <- ten.deficit + (t.params.Config.quantum * ten.weight);
      let stop = ref false in
      while not !stop do
        match Queue.peek_opt ten.queue with
        | None -> stop := true
        | Some (cost, _) when cost > ten.deficit -> stop := true
        | Some (cost, thunk) ->
          ignore (Queue.pop ten.queue);
          ten.deficit <- ten.deficit - cost;
          serve_control t;
          thunk ()
      done;
      if Queue.is_empty ten.queue then begin
        (* An idle tenant must not hoard credit: deficit carries across
           rounds only while backlogged, the classic DRR rule. *)
        ten.in_active <- false;
        ten.deficit <- 0
      end
      else Queue.push log t.active
    end;
    loop ()
  in
  loop ()

type stats = { st_admitted : int; st_shed : int; st_queued : int }

let stats t ~log =
  match Hashtbl.find_opt t.tenants log with
  | None -> { st_admitted = 0; st_shed = 0; st_queued = 0 }
  | Some ten ->
    {
      st_admitted = ten.admitted;
      st_shed = ten.shed;
      st_queued = Queue.length ten.queue;
    }

(* Install on a sequencing replica's endpoint. [view] reads the replica's
   current view for shed replies (a shed is a failed append in the
   current view — exactly what a sealed replica answers — so clients need
   no new code path). *)
let install params ~view ep =
  let t =
    {
      params;
      replica = Ll_net.Rpc.endpoint_id ep;
      tenants = Hashtbl.create 64;
      active = Queue.create ();
      control = Queue.create ();
      work = Waitq.create ();
    }
  in
  Engine.spawn
    ~name:(Ll_net.Fabric.name (Ll_net.Rpc.node ep) ^ ".drr")
    (drain_loop t);
  Ll_net.Rpc.set_ingress ep (fun ~src req ~reply ->
      let log =
        match (req : Proto.req) with
        | Proto.Sr_append { entries = e :: _; _ } ->
          (* A linger batch holds one log's entries (one batcher per
             log), so its first entry names the tenant. *)
          Some (Types.entry_log e)
        | _ -> None
      in
      match log with
      | None ->
        Queue.push (fun () -> Ll_net.Rpc.serve ep ~src req ~reply) t.control;
        Waitq.broadcast t.work;
        true
      | Some log ->
        let ten = tenant t log in
        if Queue.length ten.queue < params.Config.queue_bound then begin
          let cost = Ll_net.Rpc.service_time_of ep req in
          enqueue t ten cost (fun () -> Ll_net.Rpc.serve ep ~src req ~reply);
          true
        end
        else begin
          ten.shed <- ten.shed + 1;
          if Probe.active () then
            Probe.emit
              (Probe.Ingress_shed { replica = t.replica; log = ten.log });
          reply (Proto.R_append { ok = false; view = view () });
          true
        end);
  t
