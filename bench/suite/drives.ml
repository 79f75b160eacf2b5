(* Host unit costs of single layers, each measured by driving that layer's
   public functions in isolation: CPU time from [Unix.times] and words from
   [Gc.minor_words], best of three repetitions after a warm-up (the
   bench/engine_ab.ml method). Every drive also counts the engine events
   and fabric messages it caused, so a layer's cost can be split into its
   own part and the part already charged to the layers below it. *)

open Ll_sim
open Ll_net
open Lazylog
open Ll_workload
open Host

type cost = {
  units : int;  (** operations of the drive's unit *)
  cpu : float;  (** CPU seconds, best repetition *)
  words : float;  (** minor words allocated, same repetition *)
  events : int;  (** engine events executed *)
  msgs : int;  (** fabric messages sent *)
}

let ns_per c = c.cpu *. 1e9 /. float_of_int c.units
let words_per c = c.words /. float_of_int c.units
let events_per c = float_of_int c.events /. float_of_int c.units
let msgs_per c = float_of_int c.msgs /. float_of_int c.units

(* [f n] runs one repetition of [n] units inside its own simulation and
   returns the fabric messages it sent. *)
let best_of_3 f n =
  ignore (f (max 1 (n / 10)) : int);
  let best = ref None in
  for _ = 1 to 3 do
    let c0 = cpu () and w0 = words () in
    let msgs = f n in
    let c = cpu () -. c0 and w = words () -. w0 in
    let events = Engine.events_executed () in
    match !best with
    | Some b when b.cpu <= c -> ()
    | _ -> best := Some { units = n; cpu = c; words = w; events; msgs }
  done;
  Option.get !best

(* Engine dispatch: bare [call_after] chains beside fiber chains whose
   every step also does a ready Ivar read and a ready Mailbox receive.
   The unit is one executed event. *)
let sim n =
  let c =
    best_of_3
      (fun n ->
        Engine.run (fun () ->
            let chains = 32 in
            let per = n / (2 * chains) in
            for c = 0 to chains - 1 do
              let rec step i =
                if i < per then
                  Engine.call_after ((((c * 31) + i) mod 97) + 1) (fun () ->
                      step (i + 1))
              in
              step 0;
              Engine.spawn (fun () ->
                  let mb = Mailbox.create () in
                  for i = 1 to per do
                    Engine.sleep ((((c * 17) + i) mod 89) + 1);
                    let iv = Ivar.create () in
                    Ivar.fill iv i;
                    Mailbox.send mb (Ivar.read iv);
                    ignore (Mailbox.recv mb : int)
                  done)
            done);
        0)
      n
  in
  { c with units = c.events }

type net = { msg : cost; call : cost }

(* Fabric: a send/recv ping-pong between two nodes (unit: one message).
   RPC: sequential [Rpc.call]s to a handler that replies at once (unit:
   one call). *)
let net n =
  let msg =
    best_of_3
      (fun n ->
        let sent = ref 0 in
        Engine.run (fun () ->
            let fab : int Fabric.t = Fabric.create () in
            let a = Fabric.add_node fab ~name:"a" () in
            let b = Fabric.add_node fab ~name:"b" () in
            Engine.spawn (fun () ->
                for _ = 1 to n / 2 do
                  let src, m = Fabric.recv b in
                  Fabric.send fab ~src:b ~dst:src ~size:64 m
                done);
            for i = 1 to n / 2 do
              Fabric.send fab ~src:a ~dst:(Fabric.id b) ~size:64 i;
              ignore (Fabric.recv a : Fabric.node_id * int)
            done;
            sent := Fabric.messages_sent fab);
        !sent)
      n
  in
  let call =
    best_of_3
      (fun n ->
        let sent = ref 0 in
        Runner.in_sim (fun () ->
            let fab : (Proto.req, Proto.resp) Rpc.msg Fabric.t =
              Fabric.create ()
            in
            let server = Rpc.endpoint fab (Fabric.add_node fab ~name:"srv" ()) in
            let client = Rpc.endpoint fab (Fabric.add_node fab ~name:"cli" ()) in
            Rpc.set_handler server (fun ~src:_ _ ~reply -> reply Proto.R_ok);
            let req = Proto.Sr_check_tail { view = 0; log = 0 } in
            for _ = 1 to n do
              ignore (Rpc.call client ~dst:(Rpc.endpoint_id server) req
                : Proto.resp)
            done;
            sent := Fabric.messages_sent fab);
        !sent)
      n
  in
  { msg = { msg with units = msg.msgs }; call }

let entry system ~size ~seq =
  let rid = { Types.Rid.client = 0; seq } in
  match system with
  | Point.Erwin_m -> Types.Data (Types.record ~rid ~size ~data:"0" ())
  | Point.Erwin_st -> Types.Meta { rid; shard = 0; size; log = 0 }

(* Sequencing log: append [batch] entries, claim them as one ordering
   batch, garbage-collect them (unit: one entry). *)
let seq system ~size ~batch n =
  best_of_3
    (fun n ->
      Engine.run (fun () ->
          let slog = Seq_log.create ~capacity:(1 lsl 16) in
          let seq = ref 0 in
          for _ = 1 to max 1 (n / batch) do
            let rids = ref [] in
            for _ = 1 to batch do
              incr seq;
              let e = entry system ~size ~seq:!seq in
              ignore (Seq_log.append_wait slog e : Seq_log.append_result);
              rids := Types.entry_rid e :: !rids
            done;
            ignore (Seq_log.claim_unordered slog ~max:batch : Types.entry array);
            Seq_log.remove_ordered slog !rids
          done);
      0)
    n
  |> fun c -> { c with units = max 1 (n / batch) * batch }

(* Orderer push path: [Orderer.push_batch] of [batch] positioned records
   plus [Orderer.broadcast_stable], on a cluster built by
   [Erwin_common.create] with no orderer started (unit: one record). *)
let push ~cfg ~size ~batch n =
  let c =
    best_of_3
      (fun n ->
        Runner.in_sim (fun () ->
            let cluster = Erwin_common.create ~cfg ~mode:Erwin_common.M in
            let ep = Erwin_common.new_endpoint cluster ~name:"drive" in
            let gp = ref 0 in
            for _ = 1 to max 1 (n / batch) do
              let slots =
                List.init batch (fun i ->
                    (!gp + i, entry Point.Erwin_m ~size ~seq:(!gp + i + 1)))
              in
              Orderer.push_batch cluster ep ~truncate_from:None slots;
              gp := !gp + batch;
              Orderer.broadcast_stable cluster ep !gp
            done;
            Fabric.messages_sent cluster.Erwin_common.fabric))
      n
  in
  { c with units = max 1 (n / batch) * batch }
