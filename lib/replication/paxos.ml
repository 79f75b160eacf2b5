open Ll_sim
open Ll_net

type 'cmd req =
  | Prepare of { ballot : int }
  | Accept of { ballot : int; slot : int; cmd : 'cmd }

type 'cmd resp =
  | Promise of { ok : bool; accepted : (int * int * 'cmd) list }
  | Accepted of { ok : bool }

type 'cmd acceptor = {
  node : ('cmd req, 'cmd resp) Rpc.msg Fabric.node;
  mutable promised : int;
  accepted : (int, int * 'cmd) Hashtbl.t;  (* slot -> ballot, cmd *)
}

type 'cmd t = {
  fabric : ('cmd req, 'cmd resp) Rpc.msg Fabric.t;
  acceptors : 'cmd acceptor array;
  ep : ('cmd req, 'cmd resp) Rpc.endpoint;  (* proposer *)
  mutable ballot : int;
  mutable leading : bool;
  mutable next_slot : int;
  log : (int, 'cmd) Hashtbl.t;
  mutable commit_cursor : int;
  on_commit : int -> 'cmd -> unit;
}

let majority t = (Array.length t.acceptors / 2) + 1

(* Issue a request to every acceptor and wait for a majority of
   replies. Crashed acceptors simply never answer. *)
let quorum_call t req =
  let dsts = Array.to_list (Array.map (fun a -> Fabric.id a.node) t.acceptors) in
  let g = Rpc.fan_out t.ep ~need:(majority t) dsts req in
  ignore (Rpc.group_join g : bool);
  g

let handle_acceptor a ~src:_ req ~reply =
  match req with
  | Prepare { ballot } ->
    if ballot > a.promised then begin
      a.promised <- ballot;
      let accepted =
        Hashtbl.fold (fun slot (b, c) acc -> (slot, b, c) :: acc) a.accepted []
      in
      reply (Promise { ok = true; accepted })
    end
    else reply (Promise { ok = false; accepted = [] })
  | Accept { ballot; slot; cmd } ->
    if ballot >= a.promised then begin
      a.promised <- ballot;
      Hashtbl.replace a.accepted slot (ballot, cmd);
      reply (Accepted { ok = true })
    end
    else reply (Accepted { ok = false })

let deliver_commits t =
  let rec drain () =
    match Hashtbl.find_opt t.log t.commit_cursor with
    | Some cmd ->
      let slot = t.commit_cursor in
      t.commit_cursor <- slot + 1;
      t.on_commit slot cmd;
      drain ()
    | None -> ()
  in
  drain ()

let commit t slot cmd =
  if not (Hashtbl.mem t.log slot) then begin
    Hashtbl.replace t.log slot cmd;
    deliver_commits t
  end

let rec accept_slot t slot cmd =
  let g = quorum_call t (Accept { ballot = t.ballot; slot; cmd }) in
  if Rpc.group_for_all g (function Accepted { ok } -> ok | Promise _ -> false)
  then commit t slot cmd
  else begin
    (* Preempted by a higher ballot: reclaim leadership and retry. *)
    t.leading <- false;
    become_leader t;
    accept_slot t slot cmd
  end

and become_leader t =
  if not t.leading then begin
    t.ballot <- t.ballot + 1 + Array.length t.acceptors;
    let g = quorum_call t (Prepare { ballot = t.ballot }) in
    let promises =
      List.filter_map
        (function
          | Some (Promise { ok = true; accepted }) -> Some accepted | _ -> None)
        (List.init (Array.length t.acceptors) (Rpc.group_reply g))
    in
    if List.length promises >= majority t then begin
      t.leading <- true;
      (* Re-propose the highest-ballot accepted value per slot. *)
      let best : (int, int * 'cmd) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (List.iter (fun (slot, b, c) ->
             match Hashtbl.find_opt best slot with
             | Some (b', _) when b' >= b -> ()
             | _ -> Hashtbl.replace best slot (b, c)))
        promises;
      let slots =
        Hashtbl.fold (fun slot (_, c) acc -> (slot, c) :: acc) best []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      List.iter (fun (slot, c) -> accept_slot t slot c) slots;
      List.iter
        (fun (slot, _) ->
          if slot >= t.next_slot then t.next_slot <- slot + 1)
        slots
    end
    else become_leader t
  end

let propose t cmd =
  become_leader t;
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  accept_slot t slot cmd;
  slot

let committed t =
  Hashtbl.fold (fun slot cmd acc -> (slot, cmd) :: acc) t.log []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let chosen t slot = Hashtbl.find_opt t.log slot

let crash_acceptor t i = Fabric.crash t.fabric t.acceptors.(i).node

let create ?(acceptors = 3) ?(link = Fabric.default_link)
    ?(rpc_overhead = Engine.ns 500) ?(on_commit = fun _ _ -> ()) () =
  let fabric = Fabric.create ~link () in
  let make_acceptor i =
    let node =
      Fabric.add_node fabric
        ~name:(Printf.sprintf "paxos.acceptor%d" i)
        ~send_overhead:rpc_overhead ~recv_overhead:rpc_overhead ()
    in
    { node; promised = -1; accepted = Hashtbl.create 64 }
  in
  let accs = Array.init acceptors make_acceptor in
  let proposer_node =
    Fabric.add_node fabric ~name:"paxos.proposer"
      ~send_overhead:rpc_overhead ~recv_overhead:rpc_overhead ()
  in
  let ep = Rpc.endpoint fabric proposer_node in
  let t =
    {
      fabric;
      acceptors = accs;
      ep;
      ballot = 0;
      leading = false;
      next_slot = 0;
      log = Hashtbl.create 256;
      commit_cursor = 0;
      on_commit;
    }
  in
  Array.iter
    (fun a ->
      let aep = Rpc.endpoint fabric a.node in
      Rpc.set_service_time aep (fun _ -> 800);
      Rpc.set_handler aep (fun ~src req ~reply ->
          handle_acceptor a ~src req ~reply:(fun r -> reply r)))
    accs;
  t
