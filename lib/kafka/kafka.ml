open Ll_sim
open Ll_net
open Ll_storage

type config = {
  npartitions : int;
  replicas : int;
  linger : Engine.time;
  max_batch : int;
  broker_base_ns : int;
  rpc_overhead : Engine.time;
  link : Fabric.link;
  disk : Lazylog.Config.disk_kind;
}

let default_config =
  {
    npartitions = 1;
    replicas = 3;
    linger = Engine.ms 5;
    max_batch = 512;
    broker_base_ns = 4_000;
    rpc_overhead = Engine.us 80;
    link = Fabric.default_link;
    disk = Lazylog.Config.Sata;
  }

type req =
  | Produce of { batch : Lazylog.Types.record list }
  | Replicate of { base : int; batch : Lazylog.Types.record list }
  | Fetch of { offset : int; max : int }
  | Truncate of { from : int }
  | Tail

type resp =
  | R_base of int
  | R_ok
  | R_tail of int
  | R_records of (int * Lazylog.Types.record) list

let batch_size batch =
  List.fold_left
    (fun acc (r : Lazylog.Types.record) -> acc + r.size + 16)
    0 batch

let req_size = function
  | Produce { batch } | Replicate { batch; _ } -> batch_size batch
  | Fetch _ | Truncate _ | Tail -> 32

let resp_size = function
  | R_records records -> batch_size (List.map snd records)
  | R_base _ | R_ok | R_tail _ -> 16

type broker = {
  node : (req, resp) Rpc.msg Fabric.node;
  ep : (req, resp) Rpc.endpoint;
  store : Lazylog.Types.record Flushed_store.t;
}

type partition = {
  pid : int;
  leader : broker;
  followers : broker list;
  mutable tail : int;
  written : Waitq.t;
}

type t = {
  config : config;
  fabric : (req, resp) Rpc.msg Fabric.t;
  parts : partition array;
  mutable next_client : int;
}

let partitions t = Array.length t.parts

let make_broker t ~name =
  let node =
    Fabric.add_node t.fabric ~name ~send_overhead:t.config.rpc_overhead
      ~recv_overhead:t.config.rpc_overhead ()
  in
  let ep = Rpc.endpoint t.fabric node in
  let disk =
    match t.config.disk with
    | Lazylog.Config.Sata -> Disk.sata_ssd ()
    | Lazylog.Config.Nvme -> Disk.nvme_ssd ()
  in
  Rpc.set_service_time ep (fun r ->
      t.config.broker_base_ns
      + int_of_float (0.35 *. float_of_int (req_size r)));
  { node; ep; store = Flushed_store.create ~disk () }

let store_batch store ~base batch =
  Flushed_store.append_batch store
    (List.mapi
       (fun i (r : Lazylog.Types.record) -> (base + i, r.size, r))
       batch)

let install_partition p =
  Rpc.set_handler p.leader.ep (fun ~src:_ req ~reply ->
      match req with
      | Produce { batch } ->
        let base = p.tail in
        p.tail <- base + List.length batch;
        store_batch p.leader.store ~base batch;
        (* acks=all: synchronous replication to every follower. *)
        let r = Replicate { base; batch } in
        let dsts = List.map (fun f -> Fabric.id f.node) p.followers in
        ignore (Rpc.group_join (Rpc.fan_out p.leader.ep dsts ~size:(req_size r) r)
          : bool);
        Waitq.broadcast p.written;
        reply (R_base base)
      | Fetch { offset; max } ->
        Waitq.await p.written (fun () ->
            Flushed_store.length p.leader.store > offset);
        let upto = min p.tail (offset + max) in
        let records = ref [] in
        for o = upto - 1 downto offset do
          match Flushed_store.read p.leader.store ~pos:o with
          | Some r -> records := (o, r) :: !records
          | None -> ()
        done;
        reply ~size:(resp_size (R_records !records)) (R_records !records)
      | Truncate { from } ->
        Flushed_store.truncate p.leader.store from;
        if from < p.tail then p.tail <- from;
        List.iter
          (fun f ->
            Rpc.send_oneway p.leader.ep ~dst:(Fabric.id f.node)
              (Truncate { from }))
          p.followers;
        reply R_ok
      | Tail -> reply (R_tail p.tail)
      | Replicate _ -> failwith "kafka leader: unexpected replicate");
  List.iter
    (fun f ->
      Rpc.set_handler f.ep (fun ~src:_ req ~reply ->
          match req with
          | Replicate { base; batch } ->
            store_batch f.store ~base batch;
            reply R_ok
          | Truncate { from } ->
            Flushed_store.truncate f.store from;
            reply R_ok
          | _ -> failwith "kafka follower: unexpected request"))
    p.followers

let create ?(config = default_config) () =
  let fabric = Fabric.create ~link:config.link () in
  let t = { config; fabric; parts = [||]; next_client = 0 } in
  let t =
    {
      t with
      parts =
        Array.init config.npartitions (fun pid ->
            let leader = make_broker t ~name:(Printf.sprintf "kafka.p%d.leader" pid) in
            let followers =
              List.init (config.replicas - 1) (fun i ->
                  make_broker t ~name:(Printf.sprintf "kafka.p%d.f%d" pid i))
            in
            { pid; leader; followers; tail = 0; written = Waitq.create () });
    }
  in
  Array.iter install_partition t.parts;
  t

(* A caller's endpoint on the Kafka network. Every call a caller makes
   leaves from this one node, so per-pair FIFO keeps its requests to a
   partition in send order. *)
type conn = { kafka : t; ep : (req, resp) Rpc.endpoint }

let connect t ~name =
  let node =
    Fabric.add_node t.fabric ~name ~send_overhead:t.config.rpc_overhead
      ~recv_overhead:t.config.rpc_overhead ()
  in
  { kafka = t; ep = Rpc.endpoint t.fabric node }

let leader_id c partition = Fabric.id c.kafka.parts.(partition).leader.node

module Producer = struct
  type batch = { mutable records : Lazylog.Types.record list; acked : unit Ivar.t }

  type p = {
    part : partition;
    conn : conn;
    mutable current : (batch * Engine.time) option;  (* open batch, opened at *)
  }

  (* Ship one batch; pipelined (each batch completes independently). *)
  let ship p b =
    let batch = List.rev b.records in
    Engine.spawn ~name:"kafka.producer.ship" (fun () ->
        let r = Produce { batch } in
        (match
           Rpc.call p.conn.ep ~dst:(Fabric.id p.part.leader.node)
             ~size:(req_size r) r
         with
        | R_base _ -> ()
        | _ -> failwith "kafka producer: bad produce response");
        Ivar.fill b.acked ())

  let flush p =
    match p.current with
    | None -> ()
    | Some (b, _) ->
      p.current <- None;
      ship p b

  let append p record =
    let b =
      match p.current with
      | Some (b, _) -> b
      | None ->
        let b = { records = []; acked = Ivar.create () } in
        p.current <- Some (b, Engine.now ());
        b
    in
    b.records <- record :: b.records;
    if List.length b.records >= p.conn.kafka.config.max_batch then flush p;
    Ivar.read b.acked
end

let producer t ~partition =
  let p =
    {
      Producer.part = t.parts.(partition);
      conn = connect t ~name:(Printf.sprintf "kafka-producer.p%d" partition);
      current = None;
    }
  in
  (* Linger loop: ship an open batch once it is old enough. *)
  Engine.spawn ~name:"kafka.producer.linger" (fun () ->
      let rec loop () =
        Engine.sleep (max (t.config.linger / 4) (Engine.us 100));
        (match p.Producer.current with
        | Some (_, opened) when Engine.now () - opened >= t.config.linger ->
          Producer.flush p
        | _ -> ());
        loop ()
      in
      loop ());
  p

type produces = (req, resp) Rpc.group

let produce_slices c slices =
  let g =
    Rpc.group c.ep
      (Array.fold_left (fun n b -> if b = [] then n else n + 1) 0 slices)
  in
  Array.iteri
    (fun partition batch ->
      if batch <> [] then
        let r = Produce { batch } in
        Rpc.group_call g ~dst:(leader_id c partition) ~size:(req_size r) r)
    slices;
  g

let await_produces g = ignore (Rpc.group_join g : bool)

let fetch c ~partition ~offset ~max =
  match Rpc.call c.ep ~dst:(leader_id c partition) (Fetch { offset; max }) with
  | R_records records -> records
  | _ -> failwith "kafka: bad fetch response"

let truncate_partition c ~partition n =
  match Rpc.call c.ep ~dst:(leader_id c partition) (Truncate { from = n }) with
  | R_ok -> ()
  | _ -> failwith "kafka: bad truncate response"

(* Position p is offset p / n of partition p mod n. A partition's
   positions in the window are consecutive offsets, fetched in one call
   per partition, partitions in order. *)
let read c ~from ~len =
  let n = Array.length c.kafka.parts in
  let out = ref [] in
  for pid = 0 to n - 1 do
    let first = from + ((pid - (from mod n) + n) mod n) in
    if first < from + len then begin
      let lo = first / n and hi = (from + len - 1 - pid) / n in
      List.iter
        (fun (o, r) -> out := ((o * n) + pid, r) :: !out)
        (fetch c ~partition:pid ~offset:lo ~max:(hi - lo + 1))
    end
  done;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !out |> List.map snd

let partition_tail t ~partition = t.parts.(partition).tail

let client_log t : Lazylog.Log_api.t =
  let cid = t.next_client in
  t.next_client <- cid + 1;
  let producers =
    Array.init (Array.length t.parts) (fun pid -> producer t ~partition:pid)
  in
  let c = connect t ~name:(Printf.sprintf "kafka-client%d" cid) in
  let seq = ref 0 in
  let rr = ref 0 in
  let n = Array.length t.parts in
  let append ~size ~data =
    incr seq;
    let rid = { Lazylog.Types.Rid.client = cid; seq = !seq } in
    let record = Lazylog.Types.record ~rid ~size ~data () in
    let pid = !rr mod n in
    incr rr;
    Producer.append producers.(pid) record;
    true
  in
  let check_tail () =
    Array.fold_left
      (fun acc p ->
        match Rpc.call c.ep ~dst:(Fabric.id p.leader.node) Tail with
        | R_tail n -> acc + n
        | _ -> failwith "kafka: bad tail response")
      0 t.parts
  in
  {
    Lazylog.Log_api.name = "kafka";
    append;
    read = read c;
    check_tail;
    trim = (fun ~upto:_ -> true);
    append_sync = None;
  }
