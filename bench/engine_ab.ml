(* Engine A/B microharness: user-CPU-time measurement of the engine
   workloads from micro.ml. Wall-clock on a shared 1-vCPU box includes
   host steal time (see /proc/stat field 8), which swings 2x run to run;
   [Unix.times] user time excludes it, so this is the number to trust
   when comparing two engine builds. Usage:

     engine_ab.exe <workload> <n-events> <reps>

   Workloads: timer-callback | mixed-hop | deep-timer | deep-fiber |
   ready-ivar | ready-mailbox | fifo-fanin | mem-log-bind

   Each rep prints user-CPU ns/op and allocated words/op. *)

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
   once, to a sink that rotates round by round, so the FIFO table holds
   3 * 10^4 (src, dst) pairs and every send probes it. *)
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
   then read back. *)
let mem_log_bind n =
  let open Ll_storage in
  let l = Mem_log.create () in
  let v = ("record", 128) in
  for pos = 0 to n - 1 do
    Mem_log.set l pos v
  done;
  for pos = 0 to n - 1 do
    ignore (Mem_log.get l pos : (string * int) option)
  done

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let () =
  let workload = Sys.argv.(1) in
  let n = int_of_string Sys.argv.(2) in
  let reps = int_of_string Sys.argv.(3) in
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
    | w -> failwith ("unknown workload: " ^ w)
  in
  f (n / 10) (* warmup *);
  let best = ref infinity in
  for r = 1 to reps do
    let w0 = allocated_words () in
    let t0 = (Unix.times ()).tms_utime in
    f n;
    let dt = (Unix.times ()).tms_utime -. t0 in
    let words = allocated_words () -. w0 in
    let ev = Ll_sim.Engine.events_executed () in
    let rate = float_of_int ev /. dt /. 1e6 in
    if dt < !best then best := dt;
    Printf.printf
      "  rep %d: %d events  %.1f ms cpu  %.2f Mev/s  %.1f ns/op  %.1f words/op\n%!"
      r ev (dt *. 1000.) rate
      (dt *. 1e9 /. float_of_int n)
      (words /. float_of_int n)
  done;
  Printf.printf "%s best: %.1f ms cpu (%.1f ns/op over %d ops)\n%!" workload
    (!best *. 1000.) (!best *. 1e9 /. float_of_int n) n
