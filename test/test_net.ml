(* Tests for the simulated network: fabric delivery, FIFO links, fault
   injection, and the RPC layer. *)

open Ll_sim
open Ll_net

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_delivery_and_latency () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" () in
      let b = Fabric.add_node fab ~name:"b" () in
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "hi";
      let t0 = Engine.now () in
      let src, m = Fabric.recv b in
      Alcotest.(check string) "payload" "hi" m;
      checki "sender" (Fabric.id a) src;
      let d = Engine.now () - t0 in
      (* one_way 1.5us + overheads 2x0.5us + jitter <= 0.3us *)
      checkb "delay plausible" true (d >= Engine.us 2 && d <= Engine.us 3))

let test_size_charged () =
  Engine.run (fun () ->
      let fab =
        Fabric.create
          ~link:{ Fabric.one_way = 1_000; per_byte_ns = 1.0; jitter = 0 }
          ()
      in
      let a = Fabric.add_node fab ~name:"a" ~send_overhead:0 ~recv_overhead:0 () in
      let b = Fabric.add_node fab ~name:"b" ~send_overhead:0 ~recv_overhead:0 () in
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:10_000 "big";
      ignore (Fabric.recv b);
      checki "10KB at 1ns/B + 1us" 11_000 (Engine.now ()))

let test_fifo_per_pair () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" () in
      let b = Fabric.add_node fab ~name:"b" () in
      (* A big message takes longer on the wire; a small one sent just
         after must still arrive second. *)
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:1_000_000 1;
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 2;
      let _, m1 = Fabric.recv b in
      let _, m2 = Fabric.recv b in
      Alcotest.(check (list int)) "fifo" [ 1; 2 ] [ m1; m2 ])

let test_crash_drops () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" () in
      let b = Fabric.add_node fab ~name:"b" () in
      Fabric.crash fab b;
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "lost";
      Engine.sleep (Engine.ms 1);
      checki "inbox empty" 0 (Fabric.inbox_length b);
      Fabric.recover fab b;
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "kept";
      Engine.sleep (Engine.ms 1);
      checki "inbox has one" 1 (Fabric.inbox_length b))

let test_crash_in_flight () =
  (* A message in flight to a node that crashes before delivery is lost. *)
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" () in
      let b = Fabric.add_node fab ~name:"b" () in
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "in-flight";
      Fabric.crash fab b;
      Engine.sleep (Engine.ms 1);
      Fabric.recover fab b;
      checki "lost" 0 (Fabric.inbox_length b))

let test_crash_resets_fifo_bookkeeping () =
  (* FIFO ordering is per (src, dst) pair, tracked by last-arrival time.
     A crash wipes the pair's in-flight traffic, so it must also wipe the
     bookkeeping: post-recovery messages start a fresh FIFO stream rather
     than queueing behind arrival times of messages that were lost. *)
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" () in
      let b = Fabric.add_node fab ~name:"b" () in
      (* Push b's last-arrival mark far into the future... *)
      Fabric.set_extra_delay b (Engine.ms 50);
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "slow";
      Fabric.set_extra_delay b 0;
      (* ...then lose that message to a crash. *)
      Fabric.crash fab b;
      Fabric.recover fab b;
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "fresh";
      Engine.sleep (Engine.ms 1);
      checki "fresh message not stuck behind lost traffic" 1
        (Fabric.inbox_length b);
      let _, m = Fabric.recv b in
      Alcotest.(check string) "payload" "fresh" m)

let test_crash_many_pairs () =
  (* A crash forgets every FIFO pair of the crashed node at once. With
     hundreds of pairs those entries sit inside the probe chains of pairs
     between surviving nodes, which must keep their ordering state. *)
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let hub = Fabric.add_node fab ~name:"hub" () in
      let n = 400 in
      let peers =
        Array.init n (fun i -> Fabric.add_node fab ~name:(string_of_int i) ())
      in
      let next i = peers.((i + 1) mod n) in
      (* Pre-crash traffic through the hub, due 50 ms out... *)
      Fabric.set_extra_delay hub (Engine.ms 50);
      Array.iter
        (fun p ->
          Fabric.send fab ~src:p ~dst:(Fabric.id hub) ~size:0 (-1);
          Fabric.send fab ~src:hub ~dst:(Fabric.id p) ~size:0 (-1))
        peers;
      Fabric.set_extra_delay hub 0;
      (* ...and a slow (1 MB) message on every peer-to-peer pair. *)
      Array.iteri
        (fun i p ->
          Fabric.send fab ~src:p ~dst:(Fabric.id (next i)) ~size:1_000_000
            (1000 + i))
        peers;
      Fabric.crash fab hub;
      Fabric.recover fab hub;
      Array.iteri
        (fun i p ->
          Fabric.send fab ~src:p ~dst:(Fabric.id (next i)) ~size:0 (2000 + i);
          Fabric.send fab ~src:p ~dst:(Fabric.id hub) ~size:0 (3000 + i))
        peers;
      Engine.sleep (Engine.ms 2);
      checki "fresh traffic to the hub not stuck behind lost traffic" n
        (Fabric.inbox_length hub);
      for i = 0 to n - 1 do
        let _, big = Fabric.recv (next i) in
        let _, small = Fabric.recv (next i) in
        Alcotest.(check (list int))
          (Printf.sprintf "pair %d -> %d stays FIFO" i ((i + 1) mod n))
          [ 1000 + i; 2000 + i ] [ big; small ]
      done)

let test_partition () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" () in
      let b = Fabric.add_node fab ~name:"b" () in
      Fabric.partition fab (Fabric.id a) (Fabric.id b);
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "blocked";
      Engine.sleep (Engine.ms 1);
      checki "partitioned" 0 (Fabric.inbox_length b);
      Fabric.heal fab (Fabric.id a) (Fabric.id b);
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "through";
      Engine.sleep (Engine.ms 1);
      checki "healed" 1 (Fabric.inbox_length b))

let test_link_fault_asymmetric () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" () in
      let b = Fabric.add_node fab ~name:"b" () in
      Fabric.set_link_fault fab ~src:(Fabric.id a) ~dst:(Fabric.id b)
        ~delay:(Engine.ms 2) ();
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "slow";
      let t0 = Engine.now () in
      ignore (Fabric.recv b);
      checkb "faulted direction delayed" true (Engine.now () - t0 >= Engine.ms 2);
      (* The reverse direction of the same pair is untouched. *)
      Fabric.send fab ~src:b ~dst:(Fabric.id a) ~size:0 "fast";
      let t1 = Engine.now () in
      ignore (Fabric.recv a);
      checkb "reverse direction healthy" true (Engine.now () - t1 < Engine.ms 1);
      Fabric.clear_link_fault fab ~src:(Fabric.id a) ~dst:(Fabric.id b);
      Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "healed";
      let t2 = Engine.now () in
      ignore (Fabric.recv b);
      checkb "cleared fault restores latency" true
        (Engine.now () - t2 < Engine.ms 1))

let test_link_fault_one_way_partition () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" () in
      let b = Fabric.add_node fab ~name:"b" () in
      Fabric.set_link_fault fab ~src:(Fabric.id a) ~dst:(Fabric.id b)
        ~drop_p:1.0 ();
      checkb "fault is introspectable" true
        (Fabric.link_fault fab ~src:(Fabric.id a) ~dst:(Fabric.id b)
        = Some (0, 1.0));
      for _ = 1 to 5 do
        Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 "lost"
      done;
      Fabric.send fab ~src:b ~dst:(Fabric.id a) ~size:0 "through";
      Engine.sleep (Engine.ms 1);
      checki "forward direction fully dropped" 0 (Fabric.inbox_length b);
      checki "reverse direction delivers" 1 (Fabric.inbox_length a))

(* --- RPC --- *)

type req = Echo of int | Slow of int

let setup fab =
  let sn = Fabric.add_node fab ~name:"server" () in
  let cn = Fabric.add_node fab ~name:"client" () in
  let server = Rpc.endpoint fab sn in
  let client = Rpc.endpoint fab cn in
  (sn, server, client)

let test_rpc_roundtrip () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with
          | Echo n -> reply (n * 2)
          | Slow n ->
            Engine.sleep (Engine.ms 5);
            reply n);
      checki "echo" 84 (Rpc.call client ~dst:(Fabric.id sn) (Echo 42)))

let test_rpc_service_time_serializes () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_service_time server (fun _ -> Engine.us 10);
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with Echo n -> reply n | Slow n -> reply n);
      let t0 = Engine.now () in
      let g = Rpc.group client 10 in
      for i = 0 to 9 do
        Rpc.group_call g ~dst:(Fabric.id sn) (Echo i)
      done;
      checkb "all answered" true (Rpc.group_join g);
      (* 10 requests x 10us serialized CPU >= 100us total. *)
      checkb "cpu serialized" true (Engine.now () - t0 >= Engine.us 100))

let test_rpc_blocking_handler_does_not_stall () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with
          | Slow n ->
            Engine.sleep (Engine.ms 10);
            reply n
          | Echo n -> reply n);
      let slow = Rpc.group client 1 in
      Rpc.group_call slow ~dst:(Fabric.id sn) (Slow 1);
      Engine.sleep (Engine.us 50);
      let t0 = Engine.now () in
      checki "fast passes slow" 2 (Rpc.call client ~dst:(Fabric.id sn) (Echo 2));
      checkb "fast was fast" true (Engine.now () - t0 < Engine.ms 1);
      checkb "slow finishes" true (Rpc.group_join slow);
      checkb "with its reply" true (Rpc.group_reply slow 0 = Some 1))

(* The retry loop that groups with rounds replaced, kept as their
   reference: up to [tries] calls of [timeout] ns each ([call_timeout]
   counts each expiry), a retry counted in [retries] and, with a
   [backoff], preceded by a sleep of [base / 2 + jitter], [base =
   backoff * 2^min(n, 6)] after the [n]th failed try (from 0) and the
   jitter drawn from the engine's RNG. *)
let call_retry ?(backoff = 0) ?(retries = ref 0) client ~dst ~timeout ~tries
    req =
  let rec go attempt =
    if attempt >= tries then None
    else begin
      if attempt > 0 then incr retries;
      match Rpc.call_timeout client ~dst ~timeout req with
      | Some _ as r -> r
      | None ->
        if backoff > 0 && attempt < tries - 1 then begin
          let base = backoff * (1 lsl min attempt 6) in
          let jitter =
            Random.State.int (Engine.random_state ()) (max 1 base)
          in
          Engine.sleep ((base / 2) + jitter)
        end;
        go (attempt + 1)
    end
  in
  go 0

(* One call of [req] to [dst] retried in rounds: its reply, if any. *)
let retried ?backoff client ~dst ~round ~tries req =
  let g = Rpc.fan_out client [ dst ] ~round ~tries ?backoff req in
  ignore (Rpc.group_join g : bool);
  Rpc.group_reply g 0

let test_rpc_timeout_and_retry () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with Echo n -> reply n | Slow n -> reply n);
      Fabric.crash fab sn;
      checkb "timeout on crashed server" true
        (Rpc.call_timeout client ~dst:(Fabric.id sn) ~timeout:(Engine.ms 1)
           (Echo 1)
        = None);
      checkb "retry exhausts" true
        (retried client ~dst:(Fabric.id sn) ~round:(Engine.ms 1) ~tries:2
           (Echo 1)
        = None);
      checki "pending drained on giving up" 0 (Rpc.pending_calls client);
      Fabric.recover fab sn;
      checkb "retry succeeds after recovery" true
        (retried client ~dst:(Fabric.id sn) ~round:(Engine.ms 1) ~tries:3
           (Echo 5)
        = Some 5))

let test_rpc_oneway () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      let got = ref 0 in
      Rpc.set_handler server (fun ~src:_ req ~reply:_ ->
          match req with Echo n -> got := n | Slow _ -> ());
      Rpc.send_oneway client ~dst:(Fabric.id sn) (Echo 7);
      Engine.sleep (Engine.ms 1);
      checki "delivered" 7 !got)

let test_rpc_timeout_cleans_pending () =
  (* Satellite of the gray-failure work: a timed-out call must remove its
     pending-table entry (and count a timeout), not leak it until a
     response that may never come. *)
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with Echo n -> reply n | Slow n -> reply n);
      let before = Rpc.counters () in
      Fabric.crash fab sn;
      checkb "timed out" true
        (Rpc.call_timeout client ~dst:(Fabric.id sn) ~timeout:(Engine.ms 1)
           (Echo 1)
        = None);
      checki "pending table drained on expiry" 0 (Rpc.pending_calls client);
      Fabric.recover fab sn;
      checki "later call unaffected" 2
        (Rpc.call client ~dst:(Fabric.id sn) (Echo 2));
      checki "pending table drained on completion" 0
        (Rpc.pending_calls client);
      let d = Rpc.counters_diff ~before ~after:(Rpc.counters ()) in
      checki "timeout counted" 1 d.Rpc.cs_timeouts)

(* A timed-out call leaves no slab node behind: the expired reader's
   waiter is unlinked from its ivar, not kept live (with its fired waker)
   until the run ends. *)
let test_rpc_timeout_frees_waiter () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with Echo n | Slow n -> reply n);
      Fabric.crash fab sn;
      let dst = Fabric.id sn and timeout = Engine.us 100 in
      checkb "warm-up times out" true
        (Rpc.call_timeout client ~dst ~timeout (Echo 0) = None);
      let base = Slab.in_use () in
      for i = 1 to 1000 do
        ignore (Rpc.call_timeout client ~dst ~timeout (Echo i) : int option)
      done;
      checkb "1000 timed-out calls: slab back to baseline" true
        (Slab.in_use () - base <= 4);
      for i = 1 to 100 do
        ignore (retried client ~dst ~round:timeout ~tries:3 (Echo i)
                : int option)
      done;
      checkb "100 exhausted retries: slab back to baseline" true
        (Slab.in_use () - base <= 4))

(* Group calls: three echo servers, server [i] answering [n] with
   [n + i]; [slow] servers sleep 5 ms before answering. *)
let group_setup ?(slow = []) fab =
  let servers =
    List.init 3 (fun i ->
        let sn = Fabric.add_node fab ~name:(Printf.sprintf "server%d" i) () in
        let ep = Rpc.endpoint fab sn in
        Rpc.set_handler ep (fun ~src:_ req ~reply ->
            match req with
            | Echo n | Slow n ->
              if List.mem i slow then Engine.sleep (Engine.ms 5);
              reply (n + i));
        sn)
  in
  let client = Rpc.endpoint fab (Fabric.add_node fab ~name:"client" ()) in
  (servers, client)

let group_of client servers n =
  let g = Rpc.group client (List.length servers) in
  List.iter (fun sn -> Rpc.group_call g ~dst:(Fabric.id sn) (Echo n)) servers;
  g

let test_group_all_reply () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let servers, client = group_setup fab in
      let cancelled0 = Engine.timers_cancelled () in
      let g = group_of client servers 10 in
      checki "three in flight" 3 (Rpc.pending_calls client);
      checkb "all replied" true (Rpc.group_await g ~timeout:(Engine.ms 1));
      Alcotest.(check (list (option int)))
        "replies in call order" [ Some 10; Some 11; Some 12 ]
        (List.init 3 (Rpc.group_reply g));
      checkb "for_all" true (Rpc.group_for_all g (fun r -> r >= 10));
      checkb "for_all false" false (Rpc.group_for_all g (fun r -> r < 12));
      (* One deadline for the whole group, cancelled by the last reply. *)
      checki "one deadline" 1 (Engine.timers_cancelled () - cancelled0);
      checki "pending drained" 0 (Rpc.pending_calls client);
      (* Replies that are all in before the await need no suspension and
         arm no deadline. *)
      let g = group_of client servers 20 in
      Engine.sleep (Engine.ms 1);
      let t0 = Engine.now () and pending0 = Engine.pending_events () in
      checkb "already complete" true (Rpc.group_await g ~timeout:(Engine.ms 1));
      checki "no wait" t0 (Engine.now ());
      checki "no deadline armed" pending0 (Engine.pending_events ()))

let test_group_timeout_drops_late () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let servers, client = group_setup ~slow:[ 1 ] fab in
      let before = Rpc.counters () in
      let g = group_of client servers 0 in
      let t0 = Engine.now () in
      checkb "timed out" false (Rpc.group_await g ~timeout:(Engine.ms 1));
      checki "at the deadline" (t0 + Engine.ms 1) (Engine.now ());
      checki "unanswered member dropped" 0 (Rpc.pending_calls client);
      checkb "fast member kept its reply" true (Rpc.group_reply g 2 = Some 2);
      checkb "slow member has none" true (Rpc.group_reply g 1 = None);
      (* The late reply lands after the group gave up: it is ignored. *)
      Engine.sleep (Engine.ms 10);
      checki "late reply ignored" 0 (Rpc.pending_calls client);
      checkb "still incomplete" false (Rpc.group_for_all g (fun _ -> true));
      let d = Rpc.counters_diff ~before ~after:(Rpc.counters ()) in
      checki "group expiry not counted as a call timeout" 0 d.Rpc.cs_timeouts)

let test_group_crashed_destination () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let servers, client = group_setup fab in
      Fabric.crash fab (List.nth servers 0);
      let g = group_of client servers 5 in
      checkb "timed out" false (Rpc.group_await g ~timeout:(Engine.ms 2));
      checki "pending drained" 0 (Rpc.pending_calls client);
      checkb "live members replied" true (Rpc.group_reply g 2 = Some 7);
      (* A zero budget fails at once, and still drains the table. *)
      let g = group_of client servers 5 in
      let t0 = Engine.now () in
      checkb "zero budget" false (Rpc.group_await g ~timeout:0);
      checki "no wait" t0 (Engine.now ());
      checki "drained again" 0 (Rpc.pending_calls client))

(* Retry rounds. Three echo servers behind a jittered fabric: server 0
   is down until 250 us, server 1 answers at once, server 2 ignores the
   first request it gets. [fan_out] calls all three with retries (100 us
   per try, 5 tries, [backoff] between them) and returns the retries it
   made; the servers log every request they get. With a backoff, a
   bystander fiber draws from the engine's RNG at the first deadline,
   between the deadline's event and the next: a backoff drawn at the
   deadline's own event would take the bystander's number. *)
let rounds_scenario ?(backoff = 0) fan_out =
  let log = ref [] and fin = ref 0 and counts = ref (0, 0) in
  Engine.run ~seed:11 (fun () ->
      let fab = Fabric.create ~seed:5 () in
      let servers =
        List.init 3 (fun i ->
            let sn = Fabric.add_node fab ~name:(Printf.sprintf "s%d" i) () in
            let ep = Rpc.endpoint fab sn in
            let seen = ref 0 in
            Rpc.set_handler ep (fun ~src:_ n ~reply ->
                incr seen;
                log := (i, Engine.now ()) :: !log;
                if not (i = 2 && !seen = 1) then reply (n + i));
            sn)
      in
      let client = Rpc.endpoint fab (Fabric.add_node fab ~name:"c" ()) in
      Fabric.crash fab (List.nth servers 0);
      Engine.call_after (Engine.us 250) (fun () ->
          Fabric.recover fab (List.nth servers 0));
      if backoff > 0 then
        Engine.spawn (fun () ->
            (* Past the first round's sends, so this sleep ends just
               behind its deadlines. *)
            Engine.yield ();
            Engine.sleep (Engine.us 100);
            ignore (Random.State.int (Engine.random_state ()) 1000 : int));
      let before = Rpc.counters () in
      let retries = fan_out ~backoff client (List.map Fabric.id servers) in
      fin := Engine.now ();
      let d = Rpc.counters_diff ~before ~after:(Rpc.counters ()) in
      counts := (d.Rpc.cs_timeouts, retries));
  (List.rev !log, !fin, !counts)

(* One fiber per member running [call_retry], joined on ivars. *)
let retry_fibers ~backoff client dsts =
  let retries = ref 0 in
  let ivs =
    List.map
      (fun dst ->
        let iv = Ivar.create () in
        Engine.spawn (fun () ->
            ignore
              (call_retry ~backoff ~retries client ~dst ~timeout:(Engine.us 100)
                 ~tries:5 10
                : int option);
            Ivar.fill iv ());
        iv)
      dsts
  in
  List.iter Ivar.read ivs;
  !retries

let retry_group ~backoff client dsts =
  let before = Rpc.counters () in
  let g = Rpc.fan_out client dsts ~round:(Engine.us 100) ~tries:5 ~backoff 10 in
  checkb "every member replied" true (Rpc.group_join g);
  Alcotest.(check (list (option int)))
    "replies" [ Some 10; Some 11; Some 12 ]
    (List.init 3 (Rpc.group_reply g));
  checki "pending drained" 0 (Rpc.pending_calls client);
  (Rpc.counters_diff ~before ~after:(Rpc.counters ())).Rpc.cs_retries

(* A group's rounds send and resend at the instants, in the order, and
   with the counts of a fiber per member running [call_retry]: each
   request reaches its server when, and in the order, it did with those
   fibers, whose log is pinned here, without and with a backoff. *)
let test_group_rounds_match_call_retry () =
  let check_run name pinned (log, fin, (timeouts, retries)) =
    let plog, pfin, (ptimeouts, pretries) = pinned in
    Alcotest.(check (list (pair int int))) (name ^ ": requests") plog log;
    checki (name ^ ": joined") pfin fin;
    checki (name ^ ": timeouts") ptimeouts timeouts;
    checki (name ^ ": retries") pretries retries
  in
  let pinned =
    ( [ (2, 2526); (1, 2589); (2, 102767); (0, 302699) ],
      305429,
      (4, 4) )
  in
  check_run "call_retry fibers" pinned (rounds_scenario retry_fibers);
  check_run "group" pinned (rounds_scenario retry_group);
  let backoff = Engine.us 30 in
  let pinned =
    ( [ (2, 2526); (1, 2589); (2, 118247); (0, 253493) ],
      256223,
      (3, 3) )
  in
  check_run "call_retry fibers, backoff" pinned
    (rounds_scenario ~backoff retry_fibers);
  check_run "group, backoff" pinned (rounds_scenario ~backoff retry_group)

(* The reply that completes a group with rounds wakes the joiner one
   event later, where the member fiber that took the reply used to: a
   request handled in the same receive, right after that reply, starts
   its handler first. [Echo 0] from [s] is answered at once, and [s]'s
   handler also has [r] send the client a request that lands in the
   same nanosecond, just behind the reply. *)
let test_group_rounds_wake_position () =
  let order = ref [] in
  Engine.run (fun () ->
      let link = { Fabric.one_way = 1_000; per_byte_ns = 0.0; jitter = 0 } in
      let fab = Fabric.create ~link () in
      let sn = Fabric.add_node fab ~name:"s" () in
      let rn = Fabric.add_node fab ~name:"r" () in
      let cn = Fabric.add_node fab ~name:"c" () in
      let s = Rpc.endpoint fab sn and r = Rpc.endpoint fab rn in
      let c = Rpc.endpoint fab cn in
      Rpc.set_handler s (fun ~src:_ req ~reply ->
          match req with
          | Echo n | Slow n ->
            reply n;
            Rpc.send_oneway r ~dst:(Fabric.id cn) (Echo 1));
      Rpc.set_handler c (fun ~src:_ _ ~reply:_ -> order := "handler" :: !order);
      let g = Rpc.group c 1 ~round:(Engine.ms 1) ~tries:2 in
      Rpc.group_call g ~dst:(Fabric.id sn) (Echo 0);
      checkb "replied" true (Rpc.group_join g);
      order := "joined" :: !order;
      Engine.sleep (Engine.us 10));
  Alcotest.(check (list string))
    "handler, then the joiner" [ "handler"; "joined" ] (List.rev !order)

(* A member that never answers is sent its request [tries] times, then
   gives up: the group completes unanswered, leaves no pending call, and
   counts what one [call_retry] against the same dead server counts. *)
let test_group_rounds_give_up () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let servers, client = group_setup fab in
      let dead = List.nth servers 0 in
      Fabric.crash fab dead;
      let before = Rpc.counters () and retries = ref 0 in
      checkb "call_retry exhausts" true
        (call_retry ~retries client ~dst:(Fabric.id dead)
           ~timeout:(Engine.us 100) ~tries:4 (Echo 1)
        = None);
      let mid = Rpc.counters () in
      let sent0 = Fabric.messages_sent fab in
      let g = Rpc.group client 3 ~round:(Engine.us 100) ~tries:4 in
      List.iter (fun sn -> Rpc.group_call g ~dst:(Fabric.id sn) (Echo 1)) servers;
      let t0 = Engine.now () in
      checkb "incomplete" false (Rpc.group_join g);
      checki "after the last round" (t0 + Engine.us 400) (Engine.now ());
      (* The dead member's four sends are dropped at the crashed node, so
         only the live members' requests and replies count. *)
      checki "two live requests and replies" 4 (Fabric.messages_sent fab - sent0);
      checkb "dead member has no reply" true (Rpc.group_reply g 0 = None);
      checkb "live members do" true (Rpc.group_reply g 2 = Some 3);
      checkb "not all replied" false (Rpc.group_for_all g (fun _ -> true));
      checki "pending drained" 0 (Rpc.pending_calls client);
      let single = Rpc.counters_diff ~before ~after:mid in
      let grouped = Rpc.counters_diff ~before:mid ~after:(Rpc.counters ()) in
      checki "four timeouts" 4 single.Rpc.cs_timeouts;
      checki "timeouts as call_retry" single.Rpc.cs_timeouts
        grouped.Rpc.cs_timeouts;
      checki "retries as call_retry" !retries grouped.Rpc.cs_retries)

(* A reply to an expired round is ignored, even when it lands before the
   next round's: the server answers with the number of requests it has
   seen, and only the second request's answer counts. *)
let test_group_rounds_ignore_late () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn = Fabric.add_node fab ~name:"server" () in
      let server = Rpc.endpoint fab sn in
      let seen = ref 0 in
      Rpc.set_handler server (fun ~src:_ _ ~reply ->
          incr seen;
          let n = !seen in
          Engine.sleep (Engine.us (if n = 1 then 150 else 100));
          reply n);
      let client = Rpc.endpoint fab (Fabric.add_node fab ~name:"client" ()) in
      let before = Rpc.counters () in
      let g = Rpc.group client 1 ~round:(Engine.us 120) ~tries:3 in
      Rpc.group_call g ~dst:(Fabric.id sn) 0;
      let t0 = Engine.now () in
      checkb "replied" true (Rpc.group_join g);
      checkb "by the second round's reply" true (Rpc.group_reply g 0 = Some 2);
      checkb "which came after the late one" true
        (Engine.now () - t0 > Engine.us 220);
      let d = Rpc.counters_diff ~before ~after:(Rpc.counters ()) in
      checki "one timeout" 1 d.Rpc.cs_timeouts;
      checki "one retry" 1 d.Rpc.cs_retries;
      checki "pending drained" 0 (Rpc.pending_calls client))

(* A need-of-n group completes on its first [need] replies, with one
   member crashed, and drops the crashed member's call. *)
let test_group_need_of_n () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let servers, client = group_setup fab in
      Fabric.crash fab (List.nth servers 0);
      let g = Rpc.group client ~need:2 3 in
      List.iter (fun sn -> Rpc.group_call g ~dst:(Fabric.id sn) (Echo 1)) servers;
      checkb "majority in" true (Rpc.group_join g);
      checkb "from the live members" true
        (List.init 3 (Rpc.group_reply g) = [ None; Some 2; Some 3 ]);
      checkb "for_all over the replies in" true
        (Rpc.group_for_all g (fun r -> r >= 2));
      checki "crashed member's call dropped" 0 (Rpc.pending_calls client))

(* [group_join] waits as long as the replies take: here a slow server's
   5 ms, far past any deadline the tests use. *)
let test_group_join_no_deadline () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let servers, client = group_setup ~slow:[ 0; 1; 2 ] fab in
      let g = group_of client servers 3 in
      let t0 = Engine.now () in
      checkb "all replied" true (Rpc.group_join g);
      checkb "after the slow servers" true (Engine.now () - t0 >= Engine.ms 5);
      checkb "replies" true
        (List.init 3 (Rpc.group_reply g) = [ Some 3; Some 4; Some 5 ]))

(* The flat pending table under churn: 300 overlapping calls with mixed
   delays, a third of them outliving their timeout, must each get their
   own reply (or none) and leave the table empty. *)
let test_pending_table_churn () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with
          | Echo n -> reply n
          | Slow n ->
            Engine.sleep (Engine.us (n mod 30));
            reply n);
      let wrong = ref 0 and expired = ref 0 and finished = ref 0 in
      for i = 0 to 299 do
        Engine.spawn (fun () ->
            Engine.sleep (Engine.ns ((i * 7919) mod 5000));
            match
              Rpc.call_timeout client ~dst:(Fabric.id sn)
                ~timeout:(Engine.us 22) (Slow i)
            with
            | Some r -> if r <> i then incr wrong; incr finished
            | None -> incr expired; incr finished)
      done;
      Engine.sleep (Engine.ms 1);
      checki "all finished" 300 !finished;
      checki "every reply matched its call" 0 !wrong;
      checkb "some expired" true (!expired > 0 && !expired < 300);
      Engine.sleep (Engine.ms 1);
      checki "table empty" 0 (Rpc.pending_calls client))

(* The bare path answers what it can where the handler fiber would have
   started, and hands the rest to the handler on a fiber at that same
   point. *)
let test_bare_path () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      let bare = ref 0 and fibered = ref 0 in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          incr fibered;
          match req with
          | Slow n ->
            Engine.sleep (Engine.ms 1);
            reply n
          | Echo n -> reply n);
      Rpc.set_bare_handler server (fun ~src:_ req ~reply ->
          match req with
          | Echo n ->
            incr bare;
            reply (n * 10);
            true
          | Slow _ -> false);
      Engine.yield () (* let the endpoints' demux fibers start *);
      let fibers0 = Engine.fiber_count () in
      checki "bare reply" 30 (Rpc.call client ~dst:(Fabric.id sn) (Echo 3));
      checki "bare path took it" 1 !bare;
      checki "no handler fiber for a bare request" 0
        (Engine.fiber_count () - fibers0);
      let t0 = Engine.now () in
      checki "blocking request" 4 (Rpc.call client ~dst:(Fabric.id sn) (Slow 4));
      checki "handler fiber ran" 1 !fibered;
      checkb "and blocked" true (Engine.now () - t0 >= Engine.ms 1))

(* A bare handler's reply sends one response however often it is
   called: one request and one response cross the fabric. *)
let test_bare_reply_once () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_handler server (fun ~src:_ _ ~reply:_ ->
          Alcotest.fail "no handler fiber expected");
      Rpc.set_bare_handler server (fun ~src:_ req ~reply ->
          (match req with
          | Echo n | Slow n ->
            reply n;
            reply (n + 1);
            reply ~size:8 (n + 2));
          true);
      let sent0 = Fabric.messages_sent fab in
      checki "first reply wins" 7 (Rpc.call client ~dst:(Fabric.id sn) (Echo 7));
      Engine.sleep (Engine.ms 1);
      checki "one request, one response" 2 (Fabric.messages_sent fab - sent0))

(* A bare handler that declines leaves the request to the handler's
   fiber, which gets a working reply of its own, on the immediate path
   and after a service time; if the bare handler answered before
   declining, the fiber's reply sends nothing more. *)
let test_bare_decline_fallback () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with
          | Echo n ->
            Engine.sleep (Engine.us 5);
            reply (n * 2)
          | Slow n -> reply (n * 3));
      Rpc.set_bare_handler server (fun ~src:_ req ~reply ->
          (match req with Slow n -> reply n | Echo _ -> ());
          false);
      let dst = Fabric.id sn in
      checki "fallback fiber replies" 8 (Rpc.call client ~dst (Echo 4));
      Rpc.set_service_time server (fun _ -> Engine.us 2);
      checki "after a service time too" 10 (Rpc.call client ~dst (Echo 5));
      let sent0 = Fabric.messages_sent fab in
      checki "the bare answer stands" 6 (Rpc.call client ~dst (Slow 6));
      Engine.sleep (Engine.ms 1);
      checki "and is the only response" 2 (Fabric.messages_sent fab - sent0))

(* A bare handler's reply belongs to the call that gave it: used after
   the handler has returned, it raises instead of answering. *)
let test_bare_reply_after_return () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      let saved = ref None in
      Rpc.set_handler server (fun ~src:_ _ ~reply:_ -> ());
      Rpc.set_bare_handler server (fun ~src:_ req ~reply ->
          saved := Some reply;
          (match req with Echo n | Slow n -> reply n);
          true);
      checki "answered" 5 (Rpc.call client ~dst:(Fabric.id sn) (Echo 5));
      match !saved with
      | None -> Alcotest.fail "bare handler never ran"
      | Some reply ->
        Alcotest.check_raises "late bare reply"
          (Invalid_argument
             "Rpc: a bare handler's reply called after the handler returned")
          (fun () -> reply 6))

(* One endpoint with 2 000 calls pending, completed nearly in call
   order, each adjacent pair swapped (the shape of a FIFO server's
   backlog): the pending table's probe-plus-shift steps per completion
   stay a small constant. Homed at [token land mask], the sequential
   tokens fill one run of slots and every other completion walks to its
   end, about a quarter of the calls pending on average. *)
let test_pending_table_backlog () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      let n = 2_000 in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with
          | Echo i | Slow i ->
            Engine.sleep (Engine.us 100 + ((i lxor 1) * 50));
            reply i);
      let g = Rpc.group client n in
      for i = 0 to n - 1 do
        Rpc.group_call g ~dst:(Fabric.id sn) (Echo i)
      done;
      Engine.sleep (Engine.us 90);
      checki "all pending" n (Rpc.pending_calls client);
      let steps0 = Rpc.table_steps () in
      checkb "joined" true (Rpc.group_join g);
      checkb "each call got its own reply" true
        (List.init n (Rpc.group_reply g) = List.init n Option.some);
      checki "table empty" 0 (Rpc.pending_calls client);
      let per = float_of_int (Rpc.table_steps () - steps0) /. float_of_int n in
      checkb
        (Printf.sprintf "%.2f steps per completion, at most 8" per)
        true (per <= 8.0))

(* --- the receive path --- *)

(* A request still on the server's CPU when the server crashes is
   dropped when its service ends; the recovered server serves again. *)
let test_service_spans_crash () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      let served = ref 0 in
      Rpc.set_service_time server (fun _ -> Engine.us 20);
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          incr served;
          match req with Echo n | Slow n -> reply n);
      let g = Rpc.group client 1 in
      Rpc.group_call g ~dst:(Fabric.id sn) (Echo 1);
      Engine.sleep (Engine.us 10);
      checki "request delivered" 1 (Fabric.node_messages_in sn);
      checki "and taken into service" 0 (Fabric.inbox_length sn);
      Fabric.crash fab sn;
      Engine.sleep (Engine.us 50);
      checki "dropped when its service ended" 0 !served;
      checkb "never answered" true (Rpc.group_reply g 0 = None);
      Fabric.recover fab sn;
      checkb "served again after recovery" true
        (Rpc.call_timeout client ~dst:(Fabric.id sn) ~timeout:(Engine.ms 1)
           (Echo 2)
        = Some 2);
      checki "one request served" 1 !served)

(* A reply handed to the client's endpoint (its waker woken) before the
   client crashes is still taken: the crash clears only messages still
   queued in the inbox. *)
let test_woken_message_survives_crash () =
  Engine.run (fun () ->
      let link = { Fabric.one_way = 1_000; per_byte_ns = 0.0; jitter = 0 } in
      let fab = Fabric.create ~link () in
      let sn, server, client = setup fab in
      let cn = Rpc.node client in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with
          | Echo n | Slow n ->
            reply n;
            (* The reply arrives 500 + 1000 + 500 ns from now. This
               crash, at that instant but scheduled after the delivery,
               runs between the delivery waking the client's endpoint
               and the endpoint taking the reply. *)
            Engine.call_after 2_000 (fun () -> Fabric.crash fab cn));
      checkb "reply taken despite the crash" true
        (Rpc.call_timeout client ~dst:(Fabric.id sn) ~timeout:(Engine.ms 1)
           (Echo 7)
        = Some 7);
      checkb "client is down" false (Fabric.is_alive cn))

(* An ingress hook that declines a request leaves it to the default
   service, service time included; one that takes it owns it. *)
let test_ingress_decline_falls_through () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      let offered = ref 0 and handled = ref 0 in
      Rpc.set_service_time server (fun _ -> Engine.us 10);
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          incr handled;
          match req with Echo n | Slow n -> reply n);
      Rpc.set_ingress server (fun ~src:_ req ~reply ->
          incr offered;
          match req with
          | Echo _ -> false
          | Slow n ->
            reply (-n);
            true);
      let t0 = Engine.now () in
      checki "declined: the handler answers" 3
        (Rpc.call client ~dst:(Fabric.id sn) (Echo 3));
      checkb "after the service time" true
        (Engine.now () - t0 >= Engine.us 10);
      let t1 = Engine.now () in
      checki "taken: the hook answers" (-4)
        (Rpc.call client ~dst:(Fabric.id sn) (Slow 4));
      checkb "with no service time" true (Engine.now () - t1 < Engine.us 10);
      checki "both offered" 2 !offered;
      checki "one handled" 1 !handled)

(* A failure while an endpoint handles a message, in an ingress hook or
   a service-time function, names the endpoint. *)
let test_receive_failure_names_endpoint () =
  let fail_in install =
    match
      Engine.run (fun () ->
          let fab = Fabric.create () in
          let sn, server, client = setup fab in
          Rpc.set_handler server (fun ~src:_ _ ~reply:_ -> ());
          install server;
          Rpc.send_oneway client ~dst:(Fabric.id sn) (Echo 1);
          Engine.sleep (Engine.ms 1))
    with
    | () -> None
    | exception Engine.Fiber_failure (name, Failure m) -> Some (name, m)
  in
  let named = Alcotest.(check (option (pair string string))) in
  named "ingress hook" (Some ("server.demux", "hook"))
    (fail_in (fun ep ->
         Rpc.set_ingress ep (fun ~src:_ _ ~reply:_ -> failwith "hook")));
  named "service time" (Some ("server.demux", "cost"))
    (fail_in (fun ep -> Rpc.set_service_time ep (fun _ -> failwith "cost")))

(* Two services ending in one instant, one run by an ingress scheduler's
   fiber through [Rpc.serve] and one by the endpoint itself, both start
   on the bare path, each with its own request. *)
let test_same_instant_bare_starts () =
  Engine.run (fun () ->
      let link = { Fabric.one_way = 1_000; per_byte_ns = 0.0; jitter = 0 } in
      let fab = Fabric.create ~link () in
      let sn, server, client = setup fab in
      let starts = ref [] in
      Rpc.set_service_time server (fun _ -> Engine.us 5);
      Rpc.set_handler server (fun ~src:_ _ ~reply:_ ->
          Alcotest.fail "no request needs a fiber");
      Rpc.set_bare_handler server (fun ~src:_ req ~reply ->
          let n = match req with Echo n | Slow n -> n in
          starts := (n, Engine.now ()) :: !starts;
          reply n;
          true);
      (* [Slow] goes to a scheduler fiber that waits 1 ns before serving
         it: exactly the gap between the two requests' arrivals. *)
      Rpc.set_ingress server (fun ~src req ~reply ->
          match req with
          | Echo _ -> false
          | Slow _ ->
            Engine.spawn (fun () ->
                Engine.sleep 1;
                Rpc.serve server ~src req ~reply);
            true);
      let g = Rpc.group client 2 in
      Rpc.group_call g ~dst:(Fabric.id sn) (Slow 1);
      Rpc.group_call g ~dst:(Fabric.id sn) (Echo 2);
      checkb "both answered" true (Rpc.group_join g);
      checkb "scheduled request answered" true (Rpc.group_reply g 0 = Some 1);
      checkb "default request answered" true (Rpc.group_reply g 1 = Some 2);
      match List.rev !starts with
      | [ (1, t1); (2, t2) ] -> checki "in one instant" t1 t2
      | _ -> Alcotest.fail "each request starts once, in service order")

(* A server shaped like a sequencing replica (a service time, a bare
   path that answers most requests, a fiber fallback that blocks) under
   two clients whose calls and replies interleave. The reply order and
   the event count are pinned to what the receive path scheduled when a
   parked fiber did the receiving: an event-driven receive path must
   schedule exactly the same events. *)
let test_receive_schedule_pinned () =
  let order = ref [] in
  Engine.run ~seed:5 (fun () ->
      let fab = Fabric.create ~seed:3 () in
      let sn = Fabric.add_node fab ~name:"server" () in
      let server = Rpc.endpoint fab sn in
      let c1 = Rpc.endpoint fab (Fabric.add_node fab ~name:"c1" ()) in
      let c2 = Rpc.endpoint fab (Fabric.add_node fab ~name:"c2" ()) in
      Rpc.set_service_time server (function
        | Echo _ -> Engine.us 2
        | Slow _ -> 0);
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with
          | Slow n ->
            Engine.sleep (Engine.us 3);
            reply n
          | Echo n -> reply n);
      Rpc.set_bare_handler server (fun ~src:_ req ~reply ->
          match req with
          | Echo n when n mod 3 <> 0 ->
            reply n;
            true
          | _ -> false);
      let go c base =
        for i = 0 to 5 do
          let n = base + i in
          let req = if i mod 4 = 1 then Slow n else Echo n in
          Engine.spawn (fun () ->
              let r = Rpc.call c ~dst:(Fabric.id sn) req in
              order := r :: !order);
          if i mod 2 = 0 then Engine.sleep (Engine.ns 700)
        done
      in
      Engine.spawn (fun () -> go c1 0);
      go c2 100);
  Alcotest.(check (list int))
    "reply order"
    [ 100; 0; 2; 1; 102; 101; 3; 4; 103; 104; 5; 105 ]
    (List.rev !order);
  checki "events executed" 96 (Engine.events_executed ())

let test_rpc_retry_backoff_schedule () =
  (* Exponential backoff with seeded jitter: attempt n sleeps
     base/2 + jitter with base = backoff * 2^min(n, 6) and
     jitter in [0, base). With 12 tries against a dead peer the capped
     base sum over the 11 sleeps is 383 * backoff, so total elapsed sits
     in [12*timeout + 191.5b, 12*timeout + 574.5b) — the uncapped
     schedule's minimum (1023.5b) lies far above the upper bound, so the
     bound also proves the 2^6 cap held. *)
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, _server, client = setup fab in
      Fabric.crash fab sn;
      let timeout = Engine.us 100 and backoff = Engine.us 100 in
      let t0 = Engine.now () in
      checkb "exhausts against dead peer" true
        (retried client ~dst:(Fabric.id sn) ~round:timeout ~tries:12 ~backoff
           (Echo 1)
        = None);
      let elapsed = Engine.now () - t0 in
      let lo = (12 * timeout) + (383 * backoff / 2) in
      let hi = (12 * timeout) + (3 * 383 * backoff / 2) in
      checkb "elapsed above jitter lower bound" true (elapsed >= lo);
      checkb "elapsed below capped upper bound" true (elapsed < hi))

let test_rpc_retry_budget_sheds () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, _server, client = setup fab in
      Fabric.crash fab sn;
      (* ratio 0: nothing refills, so the two initial tokens are all the
         retries this budget will ever allow. *)
      let budget = Rpc.Retry_budget.create ~ratio:0.0 ~cap:2.0 () in
      Rpc.set_retry_budget client budget;
      (* [None] from a call that shed, not one that ran out of tries: it
         made [retries] retries, [retries + 1] timed-out attempts in all,
         and shed once. *)
      let call_sheds n ~retries =
        let before = Rpc.counters () in
        let r =
          retried client ~dst:(Fabric.id sn) ~round:(Engine.us 100) ~tries:10
            (Echo n)
        in
        let d = Rpc.counters_diff ~before ~after:(Rpc.counters ()) in
        checkb "no reply from a crashed peer" true (r = None);
        checki "retries run" retries d.Rpc.cs_retries;
        checki "attempts timed out" (retries + 1) d.Rpc.cs_timeouts;
        checki "shed, not out of tries" 1 d.Rpc.cs_shed
      in
      call_sheds 1 ~retries:2;
      checkb "budget exhausted" true (Rpc.Retry_budget.tokens budget < 1.0);
      (* An empty budget still sends first attempts — only retries shed. *)
      call_sheds 2 ~retries:0)

(* One call to [dst], hedged to another peer, in a group of one with a
   20 ms round. *)
let hedged client ~dst ~hedge req =
  let g = Rpc.group client 1 ~round:(Engine.ms 20) in
  Rpc.group_call g ~dst ~hedge req;
  ignore (Rpc.group_join g : bool);
  Rpc.group_reply g 0

let test_rpc_hedged_second_wins () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let s1 = Fabric.add_node fab ~name:"s1" () in
      let s2 = Fabric.add_node fab ~name:"s2" () in
      let cn = Fabric.add_node fab ~name:"c" () in
      let e1 = Rpc.endpoint fab s1 in
      let e2 = Rpc.endpoint fab s2 in
      let client = Rpc.endpoint fab cn in
      Rpc.set_handler e1 (fun ~src:_ req ~reply ->
          match req with
          | Slow n ->
            Engine.sleep (Engine.ms 5);
            reply n
          | Echo n -> reply n);
      Rpc.set_handler e2 (fun ~src:_ req ~reply ->
          match req with Slow n -> reply (n + 100) | Echo n -> reply n);
      let before = Rpc.counters () in
      checkb "hedge's response won (s2 adds 100)" true
        (hedged client ~dst:(Fabric.id s1)
           ~hedge:(Fabric.id s2, Engine.us 100) (Slow 1)
        = Some 101);
      let d = Rpc.counters_diff ~before ~after:(Rpc.counters ()) in
      checki "hedge fired" 1 d.Rpc.cs_hedges_fired;
      checki "hedge win counted" 1 d.Rpc.cs_hedges_won)

let test_rpc_hedged_primary_win_cancels_timer () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let s1 = Fabric.add_node fab ~name:"s1" () in
      let s2 = Fabric.add_node fab ~name:"s2" () in
      let cn = Fabric.add_node fab ~name:"c" () in
      let e1 = Rpc.endpoint fab s1 in
      let e2 = Rpc.endpoint fab s2 in
      let client = Rpc.endpoint fab cn in
      let served_by_2 = ref false in
      Rpc.set_handler e1 (fun ~src:_ req ~reply ->
          match req with Echo n -> reply n | Slow n -> reply n);
      Rpc.set_handler e2 (fun ~src:_ req ~reply ->
          served_by_2 := true;
          match req with Echo n -> reply n | Slow n -> reply n);
      let cancelled0 = Engine.timers_cancelled () in
      let before = Rpc.counters () in
      checkb "primary's response" true
        (hedged client ~dst:(Fabric.id s1) ~hedge:(Fabric.id s2, Engine.ms 5)
           (Echo 7)
        = Some 7);
      Engine.sleep (Engine.ms 10);
      let d = Rpc.counters_diff ~before ~after:(Rpc.counters ()) in
      checki "no hedge fired" 0 d.Rpc.cs_hedges_fired;
      checkb "second peer never contacted" false !served_by_2;
      checkb "hedge timer was cancelled, not fired" true
        (Engine.timers_cancelled () > cancelled0))

(* The first reply of a hedged member drops the other call still in
   flight, whichever won: the table holds nothing once the member is
   filled, the loser's late reply is ignored, and a primary the hedge
   beat is scored with the time it had taken. *)
let test_rpc_hedged_drops_twin () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let s1 = Fabric.add_node fab ~name:"s1" () in
      let s2 = Fabric.add_node fab ~name:"s2" () in
      let cn = Fabric.add_node fab ~name:"c" () in
      let client = Rpc.endpoint fab cn in
      (* [Slow] is slow at s1 only; [Echo] is slow at s2 only. *)
      Rpc.set_handler (Rpc.endpoint fab s1) (fun ~src:_ req ~reply ->
          match req with
          | Slow n ->
            Engine.sleep (Engine.ms 1);
            reply n
          | Echo n -> reply n);
      Rpc.set_handler (Rpc.endpoint fab s2) (fun ~src:_ req ~reply ->
          match req with
          | Echo n ->
            Engine.sleep (Engine.us 200);
            reply (n + 100)
          | Slow n -> reply (n + 100));
      let d1 = Fabric.id s1 and d2 = Fabric.id s2 in
      let before = Rpc.counters () in
      checkb "the hedge wins" true
        (hedged client ~dst:d1 ~hedge:(d2, Engine.us 50) (Slow 1) = Some 101);
      checki "the primary's call is dropped" 0 (Rpc.pending_calls client);
      (match Rpc.peer_score client d1 with
      | Some s ->
        checkb "the beaten primary scored at least the race" true
          (s >= float_of_int (Engine.us 50))
      | None -> Alcotest.fail "the beaten primary has no score");
      Engine.sleep (Engine.ms 2);
      checki "its late reply leaves no sample" 1 (Rpc.peer_samples client d1);
      (* The primary answers 2 us after the hedge went out, long before
         the hedge's reply. *)
      checkb "the primary wins" true
        (hedged client ~dst:d1 ~hedge:(d2, Engine.ns 1) (Echo 2) = Some 2);
      checki "the hedge's call is dropped" 0 (Rpc.pending_calls client);
      let samples2 = Rpc.peer_samples client d2 in
      Engine.sleep (Engine.ms 1);
      checki "the hedge's late reply is ignored" samples2
        (Rpc.peer_samples client d2);
      let d = Rpc.counters_diff ~before ~after:(Rpc.counters ()) in
      checki "two hedges fired" 2 d.Rpc.cs_hedges_fired;
      checki "one won" 1 d.Rpc.cs_hedges_won;
      checki "no call timed out" 0 d.Rpc.cs_timeouts)

let test_rpc_peer_scoring () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let sn, server, client = setup fab in
      Rpc.set_handler server (fun ~src:_ req ~reply ->
          match req with Echo n -> reply n | Slow n -> reply n);
      checkb "no score before any sample" true
        (Rpc.peer_score client (Fabric.id sn) = None);
      for i = 1 to 10 do
        ignore (Rpc.call client ~dst:(Fabric.id sn) (Echo i))
      done;
      checki "samples recorded by the demux" 10
        (Rpc.peer_samples client (Fabric.id sn));
      (match Rpc.peer_score client (Fabric.id sn) with
      | Some s ->
        checkb "score in the rtt ballpark" true
          (s > 0.0 && s < float_of_int (Engine.us 100))
      | None -> Alcotest.fail "expected a score after 10 samples");
      let dl =
        Rpc.hedge_deadline client ~dsts:[ Fabric.id sn ] ~floor:(Engine.us 1)
      in
      checkb "adaptive deadline above floor" true (dl >= Engine.us 1);
      Rpc.forget_peer client (Fabric.id sn);
      checkb "forgotten" true (Rpc.peer_score client (Fabric.id sn) = None);
      checki "deadline falls back to floor once forgotten" (Engine.us 5)
        (Rpc.hedge_deadline client ~dsts:[ Fabric.id sn ]
           ~floor:(Engine.us 5)))

(* Peer scores live in sorted flat arrays: inserting peers out of order,
   growing past the first four and forgetting one in the middle must
   leave every other peer's statistics exactly as an RFC-6298 reference
   computes them. *)
let test_rpc_peer_scores_flat () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let _, _, client = setup fab in
      let peers = [ 9; 3; 7; 1; 5; 11; 2 ] in
      (* srtt, dev and samples per peer, as the endpoint keeps them. *)
      let reference = Hashtbl.create 8 in
      let note dst rtt =
        Rpc.note_peer_sample client dst rtt;
        let r = float_of_int rtt in
        match Hashtbl.find_opt reference dst with
        | None -> Hashtbl.replace reference dst (r, r /. 2.0, 1)
        | Some (srtt, dev, n) ->
          let err = r -. srtt in
          Hashtbl.replace reference dst
            ( srtt +. (0.125 *. err),
              dev +. (0.25 *. (Float.abs err -. dev)),
              n + 1 )
      in
      let check_all what =
        List.iter
          (fun dst ->
            match Hashtbl.find_opt reference dst with
            | Some (srtt, dev, n) ->
              Alcotest.(check (option (float 0.0)))
                (Printf.sprintf "%s: score of %d" what dst)
                (Some (srtt +. (4.0 *. dev)))
                (Rpc.peer_score client dst);
              checki (Printf.sprintf "%s: samples of %d" what dst) n
                (Rpc.peer_samples client dst)
            | None ->
              checkb
                (Printf.sprintf "%s: %d unscored" what dst)
                true
                (Rpc.peer_score client dst = None);
              checki (Printf.sprintf "%s: %d unsampled" what dst) 0
                (Rpc.peer_samples client dst))
          (0 :: 4 :: peers)
      in
      List.iteri
        (fun round _ ->
          List.iteri
            (fun i dst -> note dst (1_000 + (i * 733) + (round * 97 * dst)))
            peers)
        [ (); (); () ];
      check_all "seven peers";
      Rpc.forget_peer client 5;
      Hashtbl.remove reference 5;
      check_all "after forgetting a middle peer";
      Rpc.forget_peer client 4;
      check_all "forgetting an unknown peer";
      note 3 50_000;
      note 5 2_000;
      note 4 3_000;
      check_all "after more samples")

let test_drop_probability () =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" () in
      let b = Fabric.add_node fab ~name:"b" () in
      Fabric.set_drop_probability fab 0.5;
      for _ = 1 to 200 do
        Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:0 ()
      done;
      Engine.sleep (Engine.ms 5);
      let n = Fabric.inbox_length b in
      checkb "roughly half dropped" true (n > 60 && n < 140))

(* The FIFO table keeps only the pairs with a message in flight. Against
   a reference that keeps every pair's last arrival until a crash of
   either end (and replays the fabric's jitter draws from the same seed),
   every delivery must land at the same time, each pair must stay FIFO
   between crashes of its ends, and an idle fabric must hold no pair. *)
let prop_fifo_matches_keep_forever =
  QCheck.Test.make ~name:"fifo table: arrivals match keep-every-pair rule"
    ~count:200
    QCheck.(
      list
        (quad (int_bound 3_000) (int_bound 9)
           (pair (int_bound 3) (int_bound 3))
           (int_bound 20_000)))
    (fun steps ->
      let ok = ref true in
      Engine.run (fun () ->
          let seed = 7 and nodes = 4 in
          let link = Fabric.default_link in
          let fab = Fabric.create ~link ~seed () in
          let ns =
            Array.init nodes (fun i ->
                Fabric.add_node fab ~name:(string_of_int i) ())
          in
          let rng = Rng.create ~seed in
          let alive = Array.make nodes true and extra = Array.make nodes 0 in
          let crashes = Array.make nodes 0 in
          let last = Hashtbl.create 16 in
          (* id -> (expected arrival, src, dst, crash epoch of the pair) *)
          let sent = Hashtbl.create 64 in
          let received = ref [] in
          Array.iter
            (fun n ->
              Engine.spawn (fun () ->
                  while true do
                    let _, id = Fabric.recv n in
                    received := (id, Engine.now ()) :: !received
                  done))
            ns;
          List.iteri
            (fun id (gap, op, (a, b), size) ->
              Engine.sleep gap;
              match op with
              | 7 -> (
                let d = [| 0; 5_000; 50_000 |].(size mod 3) in
                Fabric.set_extra_delay ns.(a) d;
                extra.(a) <- d)
              | 8 ->
                Fabric.crash fab ns.(a);
                alive.(a) <- false;
                crashes.(a) <- crashes.(a) + 1;
                Hashtbl.filter_map_inplace
                  (fun (s, d) v -> if s = a || d = a then None else Some v)
                  last
              | 9 ->
                Fabric.recover fab ns.(a);
                alive.(a) <- true
              | _ when a <> b ->
                Fabric.send fab ~src:ns.(a) ~dst:b ~size id;
                if alive.(a) && alive.(b) then begin
                  let jitter = Rng.int rng link.Fabric.jitter in
                  let raw =
                    Engine.now () + 500 + link.Fabric.one_way
                    + int_of_float
                        (link.Fabric.per_byte_ns *. float_of_int size)
                    + jitter + 500 + extra.(a) + extra.(b)
                  in
                  let arrival =
                    match Hashtbl.find_opt last (a, b) with
                    | Some l when l >= raw -> l + 1
                    | _ -> raw
                  in
                  Hashtbl.replace last (a, b) arrival;
                  Hashtbl.replace sent id
                    (arrival, a, b, crashes.(a) + crashes.(b))
                end
              | _ -> ())
            steps;
          Engine.sleep (Engine.ms 10);
          let order = List.rev !received in
          List.iter
            (fun (id, at) ->
              match Hashtbl.find_opt sent id with
              | Some (arrival, _, _, _) when arrival = at -> ()
              | _ -> ok := false)
            order;
          let newest = Hashtbl.create 16 in
          List.iter
            (fun (id, _) ->
              match Hashtbl.find_opt sent id with
              | Some (_, a, b, epoch) ->
                (match Hashtbl.find_opt newest (a, b, epoch) with
                | Some prev when prev > id -> ok := false
                | _ -> ());
                Hashtbl.replace newest (a, b, epoch) id
              | None -> ())
            order;
          if Fabric.in_flight_pairs fab <> [] then ok := false;
          Engine.stop ());
      !ok)

(* Packets against a reference over crashes and partitions. The
   reference keeps every pair's last arrival until a crash of either end
   and replays the fabric's jitter draws; a packet is accepted when both
   ends are up and the pair is whole at send time, and delivered when,
   at its arrival, its destination is up and the pair is whole. Every
   received packet must arrive when the reference says, every accepted
   packet must be delivered or lost as the reference says (a fault at
   the very instant of the arrival may go either way), each pair stays
   FIFO between crashes of its ends, and an idle fabric holds no pair. *)
let prop_packets_match_reference =
  QCheck.Test.make
    ~name:"packets: fifo and loss on crash or partition match reference"
    ~count:200
    QCheck.(
      list
        (quad (int_bound 3_000) (int_bound 11)
           (pair (int_bound 3) (int_bound 3))
           (int_bound 20_000)))
    (fun steps ->
      let ok = ref true in
      Engine.run (fun () ->
          let seed = 11 and nodes = 4 in
          let link = Fabric.default_link in
          let fab = Fabric.create ~link ~seed () in
          let ns =
            Array.init nodes (fun i ->
                Fabric.add_node fab ~name:(string_of_int i) ())
          in
          let rng = Rng.create ~seed in
          let alive = Array.make nodes true and extra = Array.make nodes 0 in
          let crashes = Array.make nodes 0 in
          let cut = Hashtbl.create 8 in
          let pair a b = (min a b, max a b) in
          (* faults in time order: (time, `Node (n, up) | `Pair (p, cut)) *)
          let faults = ref [] in
          let last = Hashtbl.create 16 in
          (* id -> (arrival, src, dst, crash epoch of the pair) *)
          let sent = Hashtbl.create 64 in
          let received = ref [] in
          Array.iter
            (fun n ->
              Engine.spawn (fun () ->
                  while true do
                    let _, id = Fabric.recv n in
                    received := (id, Engine.now ()) :: !received
                  done))
            ns;
          List.iteri
            (fun id (gap, op, (a, b), size) ->
              Engine.sleep gap;
              let now = Engine.now () in
              match op with
              | 6 -> (
                let d = [| 0; 5_000; 50_000 |].(size mod 3) in
                Fabric.set_extra_delay ns.(a) d;
                extra.(a) <- d)
              | 7 ->
                Fabric.crash fab ns.(a);
                alive.(a) <- false;
                crashes.(a) <- crashes.(a) + 1;
                faults := (now, `Node (a, false)) :: !faults;
                Hashtbl.filter_map_inplace
                  (fun (s, d) v -> if s = a || d = a then None else Some v)
                  last
              | 8 ->
                Fabric.recover fab ns.(a);
                alive.(a) <- true;
                faults := (now, `Node (a, true)) :: !faults
              | 9 when a <> b ->
                Fabric.partition fab a b;
                Hashtbl.replace cut (pair a b) ();
                faults := (now, `Pair (pair a b, true)) :: !faults
              | 10 when a <> b ->
                Fabric.heal fab a b;
                Hashtbl.remove cut (pair a b);
                faults := (now, `Pair (pair a b, false)) :: !faults
              | (0 | 1 | 2 | 3 | 4 | 5 | 11) when a <> b ->
                Fabric.send fab ~src:ns.(a) ~dst:b ~size id;
                if alive.(a) && alive.(b) && not (Hashtbl.mem cut (pair a b))
                then begin
                  let jitter = Rng.int rng link.Fabric.jitter in
                  let raw =
                    now + 500 + link.Fabric.one_way
                    + int_of_float
                        (link.Fabric.per_byte_ns *. float_of_int size)
                    + jitter + 500 + extra.(a) + extra.(b)
                  in
                  let arrival =
                    match Hashtbl.find_opt last (a, b) with
                    | Some l when l >= raw -> l + 1
                    | _ -> raw
                  in
                  Hashtbl.replace last (a, b) arrival;
                  Hashtbl.replace sent id
                    (arrival, a, b, crashes.(a) + crashes.(b))
                end
              | _ -> ())
            steps;
          Engine.sleep (Engine.ms 10);
          let faults = List.rev !faults in
          (* Whether a packet to [b] from [a] arriving at [at] is
             delivered: [None] when a fault of [b] or of the pair falls
             on [at] itself. *)
          let expect_delivered a b at =
            let mine = function
              | `Node (n, _) -> n = b
              | `Pair (p, _) -> p = pair a b
            in
            if List.exists (fun (t, f) -> t = at && mine f) faults then None
            else
              let up = ref true and whole = ref true in
              List.iter
                (fun (t, f) ->
                  if t < at && mine f then
                    match f with
                    | `Node (_, u) -> up := u
                    | `Pair (_, c) -> whole := not c)
                faults;
              Some (!up && !whole)
          in
          let order = List.rev !received in
          let got = Hashtbl.create 64 in
          List.iter
            (fun (id, at) ->
              Hashtbl.replace got id ();
              match Hashtbl.find_opt sent id with
              | Some (arrival, _, _, _) when arrival = at -> ()
              | _ -> ok := false)
            order;
          Hashtbl.iter
            (fun id (arrival, a, b, _) ->
              match expect_delivered a b arrival with
              | Some d when d <> Hashtbl.mem got id -> ok := false
              | _ -> ())
            sent;
          let newest = Hashtbl.create 16 in
          List.iter
            (fun (id, _) ->
              match Hashtbl.find_opt sent id with
              | Some (_, a, b, epoch) ->
                (match Hashtbl.find_opt newest (a, b, epoch) with
                | Some prev when prev > id -> ok := false
                | _ -> ());
                Hashtbl.replace newest (a, b, epoch) id
              | None -> ())
            order;
          if Fabric.in_flight_pairs fab <> [] then ok := false;
          Engine.stop ());
      !ok)

let () =
  Alcotest.run "net"
    [
      ( "fabric",
        [
          Alcotest.test_case "delivery and latency" `Quick
            test_delivery_and_latency;
          Alcotest.test_case "per-byte cost" `Quick test_size_charged;
          Alcotest.test_case "fifo per pair" `Quick test_fifo_per_pair;
          Alcotest.test_case "crash drops traffic" `Quick test_crash_drops;
          Alcotest.test_case "crash loses in-flight" `Quick
            test_crash_in_flight;
          Alcotest.test_case "crash resets FIFO bookkeeping" `Quick
            test_crash_resets_fifo_bookkeeping;
          Alcotest.test_case "crash forgets many pairs, keeps the rest" `Quick
            test_crash_many_pairs;
          QCheck_alcotest.to_alcotest prop_fifo_matches_keep_forever;
          QCheck_alcotest.to_alcotest prop_packets_match_reference;
          Alcotest.test_case "partition/heal" `Quick test_partition;
          Alcotest.test_case "drop probability" `Quick test_drop_probability;
          Alcotest.test_case "link fault is asymmetric" `Quick
            test_link_fault_asymmetric;
          Alcotest.test_case "link fault one-way partition" `Quick
            test_link_fault_one_way_partition;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "service time serializes" `Quick
            test_rpc_service_time_serializes;
          Alcotest.test_case "blocking handler does not stall" `Quick
            test_rpc_blocking_handler_does_not_stall;
          Alcotest.test_case "timeout and retry" `Quick
            test_rpc_timeout_and_retry;
          Alcotest.test_case "oneway" `Quick test_rpc_oneway;
          Alcotest.test_case "timeout cleans pending table" `Quick
            test_rpc_timeout_cleans_pending;
          Alcotest.test_case "timeout frees its ivar waiter" `Quick
            test_rpc_timeout_frees_waiter;
          Alcotest.test_case "retry backoff schedule (jitter, 2^6 cap)"
            `Quick test_rpc_retry_backoff_schedule;
          Alcotest.test_case "retry budget sheds, never raises" `Quick
            test_rpc_retry_budget_sheds;
          Alcotest.test_case "hedged call: hedge wins" `Quick
            test_rpc_hedged_second_wins;
          Alcotest.test_case "hedged member drops its twin" `Quick
            test_rpc_hedged_drops_twin;
          Alcotest.test_case "hedged call: primary win cancels timer"
            `Quick test_rpc_hedged_primary_win_cancels_timer;
          Alcotest.test_case "peer scores stay exact past a forget" `Quick
            test_rpc_peer_scores_flat;
          Alcotest.test_case "peer latency scoring" `Quick
            test_rpc_peer_scoring;
          Alcotest.test_case "pending table under churn" `Quick
            test_pending_table_churn;
          Alcotest.test_case "bare reply sends one response" `Quick
            test_bare_reply_once;
          Alcotest.test_case "declined bare request, fiber replies" `Quick
            test_bare_decline_fallback;
          Alcotest.test_case "bare reply after return raises" `Quick
            test_bare_reply_after_return;
          Alcotest.test_case "pending table under a backlog" `Quick
            test_pending_table_backlog;
          Alcotest.test_case "bare path, fiber fallback" `Quick
            test_bare_path;
          Alcotest.test_case "service spanning a crash is dropped" `Quick
            test_service_spans_crash;
          Alcotest.test_case "woken message survives a crash" `Quick
            test_woken_message_survives_crash;
          Alcotest.test_case "declining ingress falls through" `Quick
            test_ingress_decline_falls_through;
          Alcotest.test_case "receive failure names the endpoint" `Quick
            test_receive_failure_names_endpoint;
          Alcotest.test_case "same-instant bare starts" `Quick
            test_same_instant_bare_starts;
          Alcotest.test_case "receive schedule pinned" `Quick
            test_receive_schedule_pinned;
        ] );
      ( "group",
        [
          Alcotest.test_case "all replies, one deadline" `Quick
            test_group_all_reply;
          Alcotest.test_case "timeout drops late replies" `Quick
            test_group_timeout_drops_late;
          Alcotest.test_case "crashed destination" `Quick
            test_group_crashed_destination;
          Alcotest.test_case "rounds match call_retry fibers" `Quick
            test_group_rounds_match_call_retry;
          Alcotest.test_case "rounds wake where the member fiber did" `Quick
            test_group_rounds_wake_position;
          Alcotest.test_case "rounds give up after tries" `Quick
            test_group_rounds_give_up;
          Alcotest.test_case "rounds ignore a late reply" `Quick
            test_group_rounds_ignore_late;
          Alcotest.test_case "need of n" `Quick test_group_need_of_n;
          Alcotest.test_case "join with no deadline" `Quick
            test_group_join_no_deadline;
        ] );
    ]
