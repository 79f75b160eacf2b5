open Erwin_common

let create ?(cfg = Config.default) () =
  let cluster = Erwin_common.create ~cfg ~mode:M in
  Orderer.start cluster;
  Reconfig.start cluster;
  cluster

(* A client handle's state: each closure of its [Log_api.t] closes over
   this one record. *)
type handle = {
  cluster : Erwin_common.t;
  ep : Client_core.ep;
  cid : int;
  log : int;
  mutable seq : int;
  (* Replica rotation for reads, staggered by client id so concurrent
     readers start on different replicas of a shard. *)
  read_rr : int ref;
}

let next_rid h =
  h.seq <- h.seq + 1;
  { Types.Rid.client = h.cid; seq = h.seq }

let append h ~size ~data =
  let r = Types.record ~rid:(next_rid h) ~size ~data ~log:h.log () in
  Client_core.append_entry h.cluster h.ep ~track:false (Types.Data r);
  true

let append_sync h ~size ~data =
  let rid = next_rid h in
  let r = Types.record ~rid ~size ~data ~log:h.log () in
  Client_core.append_entry h.cluster h.ep ~track:true (Types.Data r);
  Logid.pos_of (Client_core.wait_ordered h.cluster h.ep rid)

let fetch h positions =
  Client_core.read_grouped ~rr:h.read_rr h.cluster h.ep
    ~shard_of:(shard_of_position h.cluster)
    positions

(* Per-log positions are contiguous in the packed keyspace
   ([pack ~log p = base + p]), so packing [from] once covers the whole
   window. *)
let read h ~from ~len =
  if len = 0 then []
  else
    let from = Logid.pack ~log:h.log from in
    List.map snd (fetch h (List.init len (fun i -> from + i)))

let client ?(log = 0) (cluster : Erwin_common.t) : Log_api.t =
  let cid = fresh_client_id cluster in
  let ep = new_endpoint cluster ~name:(Printf.sprintf "m-client%d" cid) in
  let h = { cluster; ep; cid; log; seq = 0; read_rr = ref cid } in
  {
    Log_api.name = "erwin-m";
    append = (fun ~size ~data -> append h ~size ~data);
    read = (fun ~from ~len -> read h ~from ~len);
    check_tail = (fun () -> Client_core.check_tail ~log:h.log h.cluster h.ep);
    trim =
      (fun ~upto ->
        (* Numeric trim sweeps the whole packed keyspace; only meaningful
           for the legacy single log. *)
        if h.log = 0 then Client_core.trim_all h.cluster h.ep ~upto else false);
    append_sync = Some (fun ~size ~data -> append_sync h ~size ~data);
  }
