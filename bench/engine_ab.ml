(* Engine A/B microharness: user-CPU-time measurement of the engine
   workloads from micro.ml. Wall-clock on a shared 1-vCPU box includes
   host steal time (see /proc/stat field 8), which swings 2x run to run;
   [Unix.times] user time excludes it, so this is the number to trust
   when comparing two engine builds. Usage:

     engine_ab.exe <workload> <n-events> <reps> [--max-words W]

   Workloads: timer-callback | mixed-hop | deep-timer | deep-fiber |
   ready-ivar | ready-mailbox | fifo-fanin | mem-log-bind | store-stage |
   suspend-wake | quorum-join | rpc-serve | rpc-backlog | replicate |
   shard-write | seq-log-churn | client-handle

   Each rep prints user-CPU ns/op and allocated words/op. Allocated words
   are exact and repeat run to run, so [--max-words W] is a ceiling that
   can gate CI without timing noise: the run exits 1 if any rep
   allocates more than W words per op. *)

let callback_chains n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 64 in
      let per = n / chains in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.call_after
              ((((c * 31) + i) mod 97) + 1)
              (fun () -> step (i + 1))
        in
        step 0
      done)

let mixed_hops n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 64 in
      let per = n / chains in
      for c = 0 to chains - 1 do
        let rec hop i =
          if i < per then begin
            let r = ((c * 131) + (i * 7919)) mod 1000 in
            let d =
              if r < 700 then (r / 8) + 1
              else if r < 950 then ((r - 700) * 400) + 1000
              else ((r - 950) * 200_000) + 1_000_000
            in
            Engine.call_after d (fun () -> hop (i + 1))
          end
        in
        hop 0
      done)

let deep_timers n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 100_000 in
      let per = (n / chains) + 1 in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.call_after
              (50_000 + (((c * 31) + (i * 7919)) mod 100_000))
              (fun () -> step (i + 1))
        in
        Engine.call_after ((c mod 50_000) + 1) (fun () -> step 0)
      done)

let deep_fiber_timers n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 100_000 in
      let per = (n / chains) + 1 in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.after
              (50_000 + (((c * 31) + (i * 7919)) mod 100_000))
              (fun () -> step (i + 1))
        in
        Engine.after ((c mod 50_000) + 1) (fun () -> step 0)
      done)

(* Already-ready waits: the hot path every RPC reply and every drained
   queue hits — the ivar is full (or the mailbox non-empty) by the time
   the consumer blocks, so [read]/[recv] must return inline without a
   suspend/resume round trip through the scheduler. Engine.events stays
   near-flat here; the interesting number is ns per wait (wall-cpu /
   n), printed alongside the event rate. *)

let ready_ivar n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      for _i = 1 to n do
        let iv = Ivar.create () in
        Ivar.fill iv 42;
        ignore (Ivar.read iv : int)
      done)

let ready_mailbox n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let mb = Mailbox.create () in
      for i = 1 to n do
        Mailbox.send mb i;
        ignore (Mailbox.recv mb : int)
      done)

(* Fabric fan-in: 10^4 producer nodes sending to 3 sinks, the shape of
   client -> sequencing-replica traffic. Each round every producer sends
   once, to a sink that rotates round by round: every send inserts its
   (src, dst) pair into the FIFO table and its delivery removes it, so
   the table holds up to 10^4 pairs in flight. *)
let fifo_fanin n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let open Ll_net in
      let producers = 10_000 in
      let fab = Fabric.create ~seed:1 () in
      let sinks =
        Array.init 3 (fun i -> Fabric.add_node fab ~name:(string_of_int i) ())
      in
      let srcs =
        Array.init producers (fun _ -> Fabric.add_node fab ~name:"p" ())
      in
      Array.iter
        (fun s ->
          Engine.spawn ~name:"sink" (fun () ->
              while true do
                ignore (Fabric.recv s : int * unit)
              done))
        sinks;
      for i = 0 to n - 1 do
        Fabric.send fab ~src:srcs.(i mod producers)
          ~dst:(Fabric.id sinks.(i mod 3)) ~size:128 ();
        if i mod producers = producers - 1 then Engine.sleep (Engine.us 20)
      done)

(* A shard's bound-record index: a dense run of positions written once,
   then read back through the option-free lookup. *)
let mem_log_bind n =
  let open Ll_storage in
  let l = Mem_log.create () in
  let v = ("record", 128) in
  for pos = 0 to n - 1 do
    Mem_log.set l pos v
  done;
  for pos = 0 to n - 1 do
    if Mem_log.mem l pos then ignore (Mem_log.find l pos : string * int)
  done

(* A shard's store: n 128-byte records staged (under the dirty limit's
   backpressure), flushed to the device, then read back in groups of 25
   positions, the grouped read an Erwin-st reader sends. Each op is one
   record through stage, flush and read; building the groups' position
   lists (3 words a position) is counted too. *)
let store_stage n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_storage in
      let s = Flushed_store.create ~disk:(Disk.nvme_ssd ()) () in
      let v = "record" in
      for pos = 0 to n - 1 do
        Flushed_store.append s ~pos ~size:128 v
      done;
      Flushed_store.flush_wait s;
      let group = 25 in
      for g = 0 to (n / group) - 1 do
        let positions = List.init group (fun i -> (g * group) + i) in
        ignore (Flushed_store.read_many s positions : (int * string) list)
      done)

(* Park and wake: a fiber blocks on an empty ivar that a bare callback
   fills one nanosecond later, n times. Each op is one suspend, one wake
   and one resume. *)
let suspend_wake n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      for i = 1 to n do
        let iv = Ivar.create () in
        Engine.call_after 1 (fun () -> Ivar.fill iv i);
        ignore (Ivar.read iv : int)
      done)

(* A 3-way RPC fan-out and its join, the shape of an Erwin append: one
   client calls three echo servers as one group and waits for all three
   replies under a deadline, n times. Includes the fabric hops and the
   servers' handler fibers. *)
let quorum_join n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let open Ll_net in
      let fab = Fabric.create ~seed:1 () in
      let servers =
        Array.init 3 (fun i ->
            let node = Fabric.add_node fab ~name:(string_of_int i) () in
            let ep = Rpc.endpoint fab node in
            Rpc.set_handler ep (fun ~src:_ (x : int) ~reply -> reply x);
            Fabric.id node)
      in
      let client = Rpc.endpoint fab (Fabric.add_node fab ~name:"c" ()) in
      for i = 1 to n do
        let g = Rpc.group client 3 in
        Array.iter (fun dst -> Rpc.group_call g ~dst i) servers;
        if not (Rpc.group_await g ~timeout:(Engine.ms 1)) then
          failwith "quorum-join: timed out"
      done)

(* Requests into one server endpoint shaped like a sequencing replica: a
   750 ns service time per request and a bare handler that answers it, so
   each request is received, charged, answered bare and its reply
   completed at the client, with no handler fiber. The client sends 16
   calls at a time as one group and joins it, n requests in all. *)
let rpc_serve n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_net in
      let fab = Fabric.create ~seed:1 () in
      let node = Fabric.add_node fab ~name:"s" () in
      let server = Rpc.endpoint fab node in
      Rpc.set_service_time server (fun _ -> 750);
      Rpc.set_handler server (fun ~src:_ (x : int) ~reply -> reply x);
      Rpc.set_bare_handler server (fun ~src:_ x ~reply ->
          reply x;
          true);
      let client = Rpc.endpoint fab (Fabric.add_node fab ~name:"c" ()) in
      let window = 16 in
      for r = 0 to (n / window) - 1 do
        let g = Rpc.group client window in
        for i = 0 to window - 1 do
          Rpc.group_call g ~dst:(Fabric.id node) ((r * window) + i)
        done;
        if not (Rpc.group_join g) then failwith "rpc-serve: no reply"
      done)

(* A standing backlog on one endpoint, the shape of a group-commit
   batcher under overload: 4 096 client fibers each call a server in a
   loop, so the client's pending table holds 4 096 calls throughout and
   they complete in call order, one per 100 ns of the server's serial
   service (answered bare). Each op is one call completed and replaced.
   A pending table whose removal walks the run of calls pending (as
   sequential tokens homed at [token land mask] do) costs O(backlog)
   per op here. *)
let rpc_backlog n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let open Ll_net in
      let fab = Fabric.create ~seed:1 () in
      let node = Fabric.add_node fab ~name:"s" () in
      let server = Rpc.endpoint fab node in
      Rpc.set_service_time server (fun _ -> 100);
      Rpc.set_handler server (fun ~src:_ (x : int) ~reply -> reply x);
      Rpc.set_bare_handler server (fun ~src:_ x ~reply ->
          reply x;
          true);
      let client = Rpc.endpoint fab (Fabric.add_node fab ~name:"c" ()) in
      let left = ref n in
      for _ = 1 to 4_096 do
        Engine.spawn (fun () ->
            while !left > 0 do
              decr left;
              ignore (Rpc.call client ~dst:(Fabric.id node) !left : int)
            done)
      done)

(* A shard primary's replication: a 2-member group with retry rounds
   (10 ms rounds, 50 tries) to two echo servers, joined with no
   deadline, n times. Every member answers in its first round, so each
   op is one group: its first-round event, its round timer, and the
   event after the second reply that cancels the timer and wakes the
   joiner. *)
let replicate n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let open Ll_net in
      let fab = Fabric.create ~seed:1 () in
      let backups =
        Array.init 2 (fun i ->
            let node = Fabric.add_node fab ~name:(string_of_int i) () in
            let ep = Rpc.endpoint fab node in
            Rpc.set_handler ep (fun ~src:_ (x : int) ~reply -> reply x);
            Fabric.id node)
      in
      let primary = Rpc.endpoint fab (Fabric.add_node fab ~name:"p" ()) in
      for i = 1 to n do
        let g = Rpc.group primary 2 ~round:(Engine.ms 10) ~tries:50 in
        Array.iter (fun dst -> Rpc.group_call g ~dst i) backups;
        if not (Rpc.group_join g) then failwith "replicate: gave up"
      done)

(* Erwin-st's data write to one shard: a client writes each 64-byte
   record to the primary and its one backup as a 2-member group and
   joins it, n records in all. Both replicas stage and journal the
   record under the dirty limit, so both answer on the bare path. Each
   op is one record: its request, the two hops each way, both replicas'
   staging and journal entries, and the group. *)
let shard_write n =
  Ll_sim.Engine.run (fun () ->
      let open Lazylog in
      let open Ll_net in
      let cfg =
        { (Config.scaled_cluster Config.default) with
          Config.shard_backup_count = 1 }
      in
      let fabric = Fabric.create ~link:cfg.Config.link () in
      let shard = Shard.create ~cfg ~fabric ~shard_id:0 in
      let client = Rpc.endpoint fabric (Fabric.add_node fabric ~name:"c" ()) in
      let dsts = Shard.replica_ids shard in
      for seq = 1 to n do
        let record =
          Types.record ~rid:{ Types.Rid.client = 0; seq } ~size:64 ()
        in
        let req = Proto.Ssh_data_write { record } in
        let g = Rpc.fan_out client dsts ~size:(Proto.req_size req) req in
        if not (Rpc.group_join g) then failwith "shard-write: no reply"
      done)

(* The sequencing log's churn under batched ordering: append a batch of
   17 entries, claim them, garbage collect them, n entries in all. Each
   op is one entry through append, claim and removal. *)
let seq_log_churn n =
  let open Lazylog in
  let batch = 17 in
  let t = Seq_log.create ~capacity:4096 in
  let seq = ref 0 in
  for _ = 1 to n / batch do
    for _ = 1 to batch do
      incr seq;
      ignore
        (Seq_log.try_append t
           (Types.Data
              (Types.record
                 ~rid:{ Types.Rid.client = 0; seq = !seq }
                 ~size:64 ()))
          : Seq_log.append_result option)
    done;
    let claimed = Seq_log.claim_unordered t ~max:batch in
    Seq_log.remove_ordered t
      (Array.fold_right (fun e acc -> Types.entry_rid e :: acc) claimed [])
  done

(* Client handles: n Erwin-m handles built on one cluster, the
   per-producer cost of the append-ladder and open-loop worlds. Each op
   is one handle: its fabric node, RPC endpoint and closures. *)
let client_handle n =
  Ll_sim.Engine.run (fun () ->
      let open Lazylog in
      let cluster = Erwin_m.create () in
      let handles = Array.init n (fun _ -> Erwin_m.client cluster) in
      ignore (Sys.opaque_identity handles : Log_api.t array);
      Ll_sim.Engine.stop ())

(* Erwin-st reads spanning three shards: one writer appends three
   records, one per shard, and a reader reads them back n times once
   they are bound and its map is cached. Each op is one read: a request
   to each shard, answered on the shards' bare path, and the join. *)
let client_read n =
  Ll_sim.Engine.run (fun () ->
      let open Lazylog in
      let cfg = { Config.default with nshards = 3 } in
      let cluster = Erwin_st.create ~cfg () in
      let writer = Erwin_st.client cluster in
      for i = 1 to 3 do
        if not (writer.Log_api.append ~size:64 ~data:(string_of_int i)) then
          failwith "client-read: append failed"
      done;
      while cluster.Erwin_common.stable_gp < 3 do
        Ll_sim.Engine.sleep (Ll_sim.Engine.us 100)
      done;
      if
        not
          (List.for_all
             (fun s -> List.length (Shard.bound_positions s) = 1)
             cluster.Erwin_common.shards)
      then failwith "client-read: records not spread over three shards";
      let reader = Erwin_st.client cluster in
      for _ = 1 to n do
        if List.length (reader.Log_api.read ~from:0 ~len:3) <> 3 then
          failwith "client-read: short read"
      done;
      Ll_sim.Engine.stop ())

(* [Gc.minor_words] counts the minor heap's unflushed part as well,
   which [Gc.counters]' minor count leaves out. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split pos max_words = function
    | "--max-words" :: w :: rest -> split pos (Some (float_of_string w)) rest
    | a :: rest -> split (a :: pos) max_words rest
    | [] -> (List.rev pos, max_words)
  in
  let workload, n, reps, max_words =
    match split [] None args with
    | [ w; n; r ], mw -> (w, int_of_string n, int_of_string r, mw)
    | _ ->
      prerr_endline
        "usage: engine_ab.exe <workload> <n-events> <reps> [--max-words W]";
      exit 2
  in
  let f =
    match workload with
    | "timer-callback" -> callback_chains
    | "mixed-hop" -> mixed_hops
    | "deep-timer" -> deep_timers
    | "deep-fiber" -> deep_fiber_timers
    | "ready-ivar" -> ready_ivar
    | "ready-mailbox" -> ready_mailbox
    | "fifo-fanin" -> fifo_fanin
    | "mem-log-bind" -> mem_log_bind
    | "store-stage" -> store_stage
    | "suspend-wake" -> suspend_wake
    | "quorum-join" -> quorum_join
    | "rpc-serve" -> rpc_serve
    | "rpc-backlog" -> rpc_backlog
    | "replicate" -> replicate
    | "shard-write" -> shard_write
    | "seq-log-churn" -> seq_log_churn
    | "client-handle" -> client_handle
    | "client-read" -> client_read
    | w -> failwith ("unknown workload: " ^ w)
  in
  f (n / 10) (* warmup *);
  let best = ref infinity in
  let worst_words = ref 0.0 in
  for r = 1 to reps do
    let w0 = allocated_words () in
    let t0 = (Unix.times ()).tms_utime in
    f n;
    let dt = (Unix.times ()).tms_utime -. t0 in
    let words = allocated_words () -. w0 in
    let ev = Ll_sim.Engine.events_executed () in
    let rate = float_of_int ev /. dt /. 1e6 in
    if dt < !best then best := dt;
    let wpo = words /. float_of_int n in
    if wpo > !worst_words then worst_words := wpo;
    Printf.printf
      "  rep %d: %d events  %.1f ms cpu  %.2f Mev/s  %.1f ns/op  %.1f words/op\n%!"
      r ev (dt *. 1000.) rate
      (dt *. 1e9 /. float_of_int n)
      (words /. float_of_int n)
  done;
  Printf.printf "%s best: %.1f ms cpu (%.1f ns/op over %d ops)\n%!" workload
    (!best *. 1000.) (!best *. 1e9 /. float_of_int n) n;
  match max_words with
  | Some w when !worst_words > w ->
    Printf.printf "%s: %.2f words/op exceeds the ceiling of %.2f\n%!" workload
      !worst_words w;
    exit 1
  | Some w ->
    Printf.printf "%s: %.2f words/op within the ceiling of %.2f\n%!" workload
      !worst_words w
  | None -> ()
