(* Slab allocator: free-list reuse, reset semantics, and node recycling
   through the wait-queue primitives that own slab nodes (Mailbox, Waitq,
   Ivar); the fabric's crash cleanup takes none. The slab is domain-local
   and LIFO, so the tests can assert exact node indices for reuse. *)

open Ll_sim

(* Each test runs against the current domain's slab; reset first so
   earlier tests (or an earlier Engine.run) don't leak state in. *)
let fresh () = Slab.reset ()

let test_alloc_free_reuse () =
  fresh ();
  let base = Slab.in_use () in
  let a = Slab.alloc (Obj.repr 1) in
  let b = Slab.alloc (Obj.repr 2) in
  Alcotest.(check int) "two live nodes" (base + 2) (Slab.in_use ());
  Alcotest.(check int) "payload a" 1 (Obj.obj (Slab.get a));
  Alcotest.(check int) "payload b" 2 (Obj.obj (Slab.get b));
  Slab.free b;
  (* LIFO free list: the next alloc must return the node just freed. *)
  let c = Slab.alloc (Obj.repr 3) in
  Alcotest.(check int) "freed node reused LIFO" b c;
  Alcotest.(check int) "fresh node starts detached" Slab.nil (Slab.next c);
  Slab.free c;
  Slab.free a;
  Alcotest.(check int) "all returned" base (Slab.in_use ())

let test_links () =
  fresh ();
  let a = Slab.alloc (Obj.repr "a") in
  let b = Slab.alloc (Obj.repr "b") in
  Slab.set_next a b;
  Alcotest.(check int) "a links to b" b (Slab.next a);
  Alcotest.(check int) "b is tail" Slab.nil (Slab.next b);
  Slab.set a (Obj.repr "a'");
  Alcotest.(check string) "set replaces payload" "a'" (Obj.obj (Slab.get a));
  Slab.free a;
  Slab.free b

let test_growth_keeps_nodes () =
  fresh ();
  (* Allocate far past the initial capacity: growth must preserve every
     live payload and link. *)
  let n = 10_000 in
  let nodes = Array.init n (fun i -> Slab.alloc (Obj.repr i)) in
  for i = 0 to n - 2 do
    Slab.set_next nodes.(i) nodes.(i + 1)
  done;
  Alcotest.(check bool) "capacity grew" true (Slab.capacity () >= n);
  (* Walk the chain we built and re-derive the payloads. *)
  let c = ref nodes.(0) in
  for i = 0 to n - 1 do
    Alcotest.(check int) "payload survives growth" i (Obj.obj (Slab.get !c));
    c := Slab.next !c
  done;
  Alcotest.(check int) "chain terminated" Slab.nil !c;
  Array.iter Slab.free nodes;
  Alcotest.(check int) "all freed" 0 (Slab.in_use ())

let test_reset () =
  fresh ();
  let _a = Slab.alloc (Obj.repr 1) in
  let _b = Slab.alloc (Obj.repr 2) in
  let cap = Slab.capacity () in
  Slab.reset ();
  Alcotest.(check int) "reset frees everything" 0 (Slab.in_use ());
  Alcotest.(check int) "reset keeps capacity" cap (Slab.capacity ());
  (* The whole pool is allocatable again. *)
  let nodes = Array.init cap (fun i -> Slab.alloc (Obj.repr i)) in
  Alcotest.(check int) "full pool live" cap (Slab.in_use ());
  Array.iter Slab.free nodes

(* Engine.run resets the slab at run start, so sim structures from a
   previous run can never alias nodes in the next one. *)
let test_run_resets () =
  let leaked = ref Slab.nil in
  Engine.run (fun () -> leaked := Slab.alloc (Obj.repr 7));
  Alcotest.(check bool) "node leaked out of the run" true (!leaked >= 0);
  let before = Slab.in_use () in
  Engine.run (fun () ->
      Alcotest.(check int) "fresh run starts empty" 0 (Slab.in_use ()));
  ignore before

(* Node recycling under suspend/wake interleavings: parked waiters hold
   slab nodes; a normal wake frees the node at delivery (and cancels the
   deadline timer), a timed-out waiter's dead node is swept lazily by the
   next send that walks the list. *)
let test_mailbox_recycling () =
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      let got = ref 0 and timed_out = ref 0 in
      for _ = 1 to 1_000 do
        Engine.spawn (fun () ->
            match Mailbox.recv_timeout mb ~timeout:(Engine.us 50) with
            | Some _ -> incr got
            | None -> incr timed_out)
      done;
      (* Feed the first 500 (FIFO) before their deadline; the rest time
         out at us 50. *)
      for i = 1 to 500 do
        Engine.call_after (Engine.us 10) (fun () -> Mailbox.send mb i)
      done;
      (* A late send walks past every dead waiter, sweeping the nodes,
         and lands in the item queue. *)
      Engine.call_after (Engine.us 100) (fun () -> Mailbox.send mb 0);
      Engine.after (Engine.us 150) (fun () ->
          Alcotest.(check int) "fed receivers" 500 !got;
          Alcotest.(check int) "timed-out receivers" 500 !timed_out;
          Alcotest.(check (option int)) "late item" (Some 0)
            (Mailbox.try_recv mb);
          Alcotest.(check int) "every waiter/item node recycled" 0
            (Slab.in_use ());
          (* The 500 normal wakes each cancelled their deadline cell —
             nothing dead is left churning in the wheel. *)
          Alcotest.(check int) "deadlines cancelled" 500
            (Engine.timers_cancelled ());
          Alcotest.(check int) "no dead timers pending" 0
            (Engine.pending_events ())))

let test_waitq_ivar_recycling () =
  Engine.run (fun () ->
      let wq = Waitq.create () in
      let iv = Ivar.create () in
      let woke = ref 0 in
      let flag = ref false in
      for _ = 1 to 100 do
        Engine.spawn (fun () ->
            Waitq.await wq (fun () -> !flag);
            incr woke);
        Engine.spawn (fun () -> ignore (Ivar.read iv : int))
      done;
      Engine.call_after (Engine.us 5) (fun () ->
          Alcotest.(check int) "parked waiters hold nodes" 200
            (Slab.in_use ());
          flag := true;
          Waitq.broadcast wq;
          Ivar.fill iv 42);
      Engine.after (Engine.us 10) (fun () ->
          Alcotest.(check int) "all woke" 100 !woke;
          Alcotest.(check int) "broadcast and fill free all nodes" 0
            (Slab.in_use ())))

(* The fabric's FIFO bookkeeping lives in its own table, not in slab
   nodes: a crash sweeps the crashed node's pairs out of it, and sends
   take no slab node. *)
let test_fabric_crash_cleanup () =
  Engine.run (fun () ->
      let fab = Ll_net.Fabric.create ~seed:1 () in
      let a = Ll_net.Fabric.add_node fab ~name:"a" () in
      let peers =
        Array.init 16 (fun i ->
            Ll_net.Fabric.add_node fab ~name:(string_of_int i) ())
      in
      let a_id = Ll_net.Fabric.id a in
      let live = Slab.in_use () in
      Array.iter
        (fun p ->
          Ll_net.Fabric.send fab ~src:a ~dst:(Ll_net.Fabric.id p) ~size:16 ();
          Ll_net.Fabric.send fab ~src:p ~dst:a_id ~size:16 ())
        peers;
      Array.iteri
        (fun i p ->
          Ll_net.Fabric.send fab ~src:p
            ~dst:(Ll_net.Fabric.id peers.((i + 1) mod 16))
            ~size:16 ())
        peers;
      Alcotest.(check int) "sends take no slab nodes" live (Slab.in_use ());
      Alcotest.(check int) "every pair in flight is held" 48
        (List.length (Ll_net.Fabric.in_flight_pairs fab));
      Ll_net.Fabric.crash fab a;
      let pairs = Ll_net.Fabric.in_flight_pairs fab in
      Alcotest.(check bool) "no pair of the crashed node remains" true
        (List.for_all (fun (s, d) -> s <> a_id && d <> a_id) pairs);
      Alcotest.(check int) "the other pairs stay" 16 (List.length pairs);
      Engine.sleep (Engine.us 50);
      Alcotest.(check int) "an idle fabric holds no pair" 0
        (List.length (Ll_net.Fabric.in_flight_pairs fab)))

let () =
  Alcotest.run "slab"
    [
      ( "slab",
        [
          Alcotest.test_case "alloc/free LIFO reuse" `Quick
            test_alloc_free_reuse;
          Alcotest.test_case "links and payload set" `Quick test_links;
          Alcotest.test_case "growth preserves live nodes" `Quick
            test_growth_keeps_nodes;
          Alcotest.test_case "reset reclaims, keeps capacity" `Quick
            test_reset;
          Alcotest.test_case "Engine.run resets the slab" `Quick
            test_run_resets;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "mailbox timed-recv storm leaks nothing" `Quick
            test_mailbox_recycling;
          Alcotest.test_case "waitq broadcast + ivar fill free nodes" `Quick
            test_waitq_ivar_recycling;
          Alcotest.test_case "fabric crash frees FIFO keys" `Quick
            test_fabric_crash_cleanup;
        ] );
    ]
