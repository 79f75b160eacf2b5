open Ll_sim

type node_id = int

(* Node ids are packed two-to-an-int for FIFO / partition bookkeeping:
   [(a lsl key_bits) lor b]. 2^20 nodes per fabric is plenty (the open-loop
   bench drives 10^5 producer nodes) and int-keyed tables avoid boxing a
   tuple per lookup on the per-message hot path. *)
let key_bits = 20
let max_nodes = 1 lsl key_bits

let fifo_key src dst = (src lsl key_bits) lor dst

let pair_key a b = if a < b then (a lsl key_bits) lor b else (b lsl key_bits) lor a

type link = {
  one_way : Engine.time;
  per_byte_ns : float;
  jitter : Engine.time;
}

let default_link = { one_way = 1_500; per_byte_ns = 0.32; jitter = 300 }

(* A message in flight and in an inbox: the delivery event's argument,
   so one block per message serves the wire, the inbox and the
   receiver. *)
type 'm packet = { src : node_id; dst : node_id; msg : 'm }

let packet_src p = p.src
let packet_msg p = p.msg

type 'm node = {
  nid : node_id;
  nname : string;
  send_overhead : Engine.time;
  recv_overhead : Engine.time;
  inbox : 'm packet Mailbox.t;
  mutable alive : bool;
  mutable extra : Engine.time;
  mutable delivered : int;
}

(* Per-direction link degradation (gray failures): extra delay and/or
   loss applied to messages entering the directed (src, dst) link. Unlike
   a partition this is asymmetric — one direction can be lossy or slow
   while the reverse stays healthy — which is the shape of a partial
   partition or a half-broken NIC queue. *)
type lfault = { lf_delay : Engine.time; lf_drop_p : float }

type 'm t = {
  link : link;
  rng : Rng.t;
  (* Amortized-growth registry: [nodes] doubles, [nnodes] is the count.
     Slots at index >= nnodes are padding (re-pointing at node 0). *)
  mutable nodes : 'm node array;
  mutable nnodes : int;
  (* FIFO enforcement: latest arrival time scheduled on (src,dst), keyed
     by the packed pair, for the pairs with a message in flight. A flat
     table: one probe per send, no heap cell per pair. The delivery of a
     pair's last message in flight removes its entry (see [send]), so the
     table holds the pairs in flight, not every pair ever used. *)
  last_arrival : Int_table.t;
  partitions : (int, unit) Hashtbl.t;
  (* Directed link faults, keyed by the packed (src, dst) key. The hot
     path guards on the table being empty, so healthy runs pay one length
     check per send and draw nothing from the rng. *)
  link_faults : (int, lfault) Hashtbl.t;
  mutable drop_p : float;
  mutable sent : int;
  mutable sent_bytes : int;
  (* The one delivery function every send schedules on its packet. *)
  mutable deliver : 'm packet -> unit;
}

(* Partitions exist only under fault scripts: healthy runs skip the hash
   on both send and delivery. *)
let partitioned t a b =
  Hashtbl.length t.partitions > 0 && Hashtbl.mem t.partitions (pair_key a b)

(* A packet's arrival. The pair's last message in flight drops its FIFO
   entry. That moves no arrival: an entry holding [v] goes at time [v],
   and any later send on the pair arrives after [v] + one_way > [v],
   where the kept entry would not have raised it. Liveness and partition
   are checked again here: a message in flight to a node that crashes
   meanwhile is lost. *)
let deliver t p =
  let key = fifo_key p.src p.dst in
  if Int_table.find t.last_arrival key ~default:(-1) = Engine.now () then
    Int_table.remove t.last_arrival key;
  let dst_node = t.nodes.(p.dst) in
  if dst_node.alive && not (partitioned t p.src p.dst) then begin
    dst_node.delivered <- dst_node.delivered + 1;
    Mailbox.send dst_node.inbox p
  end

let create ?(link = default_link) ?seed () =
  if link.one_way <= 0 then invalid_arg "Fabric.create: link.one_way <= 0";
  (* Without an explicit seed, derive one from the engine's master-seeded
     stream so a single master seed reproduces the fabric's jitter and
     drop decisions too. *)
  let seed =
    match seed with
    | Some s -> s
    | None -> Random.State.bits (Engine.random_state ())
  in
  let t =
    {
      link;
      rng = Rng.create ~seed;
      nodes = [||];
      nnodes = 0;
      last_arrival = Int_table.create 64;
      partitions = Hashtbl.create 8;
      link_faults = Hashtbl.create 8;
      drop_p = 0.0;
      sent = 0;
      sent_bytes = 0;
      deliver = ignore;
    }
  in
  t.deliver <- (fun p -> deliver t p);
  t

let add_node t ~name ?(send_overhead = 500) ?(recv_overhead = 500) () =
  if t.nnodes >= max_nodes then failwith "Fabric.add_node: too many nodes";
  let n =
    {
      nid = t.nnodes;
      nname = name;
      send_overhead;
      recv_overhead;
      inbox = Mailbox.create ();
      alive = true;
      extra = 0;
      delivered = 0;
    }
  in
  let cap = Array.length t.nodes in
  if t.nnodes >= cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nnodes = Array.make ncap n in
    Array.blit t.nodes 0 nnodes 0 cap;
    t.nodes <- nnodes
  end;
  t.nodes.(t.nnodes) <- n;
  t.nnodes <- t.nnodes + 1;
  n

let id n = n.nid
let name n = n.nname

let node_by_id t i =
  if i < 0 || i >= t.nnodes then invalid_arg "Fabric.node_by_id";
  t.nodes.(i)

let send t ~src ~dst ~size msg =
  let dst_node = t.nodes.(dst) in
  (* Directed link fault, if any. Empty-table check first: healthy runs
     must not pay a hash lookup (or draw from the rng) per message. *)
  let lf =
    if Hashtbl.length t.link_faults = 0 then None
    else Hashtbl.find_opt t.link_faults (fifo_key src.nid dst)
  in
  if
    src.alive && dst_node.alive
    && (not (partitioned t src.nid dst))
    && (not (t.drop_p > 0.0 && Rng.bool t.rng ~p:t.drop_p))
    && not
         (match lf with
         | Some { lf_drop_p = p; _ } when p > 0.0 ->
           (* p >= 1.0 is a one-way partition: deterministic, no draw. *)
           p >= 1.0 || Rng.bool t.rng ~p
         | _ -> false)
  then begin
    t.sent <- t.sent + 1;
    t.sent_bytes <- t.sent_bytes + size;
    let jitter =
      if t.link.jitter > 0 then Rng.int t.rng t.link.jitter else 0
    in
    let wire =
      t.link.one_way
      + int_of_float (t.link.per_byte_ns *. float_of_int size)
      + jitter
    in
    let delay =
      src.send_overhead + wire + dst_node.recv_overhead + src.extra
      + dst_node.extra
      + (match lf with Some l -> l.lf_delay | None -> 0)
    in
    let arrival = Engine.now () + delay in
    let key = fifo_key src.nid dst in
    (* Arrival times are non-negative, so [-1] marks a pair with nothing
       in flight. *)
    let s = Int_table.slot t.last_arrival key ~absent:(-1) in
    let last = Int_table.value t.last_arrival s in
    let arrival = if last >= arrival then last + 1 else arrival in
    Int_table.set_value t.last_arrival s arrival;
    (* Bare callback: delivery only re-checks liveness and enqueues, no
       fiber effects, so it skips the fiber-start cost per hop; and the
       event carries the fabric's one [deliver] and the packet, so the
       packet is all a hop allocates. *)
    Engine.call_at_with arrival t.deliver { src = src.nid; dst; msg }
  end

let recv n =
  let p = Mailbox.recv n.inbox in
  (p.src, p.msg)

let take_or_park n w f = Mailbox.take_or_park n.inbox w f

let inbox_length n = Mailbox.length n.inbox

let node_mask = max_nodes - 1

let crash t n =
  n.alive <- false;
  Mailbox.clear n.inbox;
  (* Forget FIFO bookkeeping involving this node: everything in flight is
     dropped, so a revived node's first message must not be artificially
     delayed behind (or ordered after) pre-crash traffic. The table holds
     only the pairs in flight, so the sweep is short. *)
  let nid = n.nid in
  Int_table.fold_keys t.last_arrival
    (fun k acc ->
      if k lsr key_bits = nid || k land node_mask = nid then k :: acc
      else acc)
    []
  |> List.iter (Int_table.remove t.last_arrival)

let in_flight_pairs t =
  Int_table.fold_keys t.last_arrival
    (fun k acc -> (k lsr key_bits, k land node_mask) :: acc)
    []

let recover _t n = n.alive <- true

let is_alive n = n.alive

let partition t a b = Hashtbl.replace t.partitions (pair_key a b) ()

let heal t a b = Hashtbl.remove t.partitions (pair_key a b)

let set_drop_probability t p = t.drop_p <- p

let set_link_fault t ~src ~dst ?(delay = 0) ?(drop_p = 0.0) () =
  Hashtbl.replace t.link_faults (fifo_key src dst)
    { lf_delay = delay; lf_drop_p = drop_p }

let clear_link_fault t ~src ~dst =
  Hashtbl.remove t.link_faults (fifo_key src dst)

let link_fault t ~src ~dst =
  match Hashtbl.find_opt t.link_faults (fifo_key src dst) with
  | Some { lf_delay; lf_drop_p } -> Some (lf_delay, lf_drop_p)
  | None -> None

let set_extra_delay n d = n.extra <- d

let messages_sent t = t.sent

let bytes_sent t = t.sent_bytes

let node_messages_in n = n.delivered
