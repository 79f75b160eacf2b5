open Ll_sim
open Ll_net
open Ll_storage
open Lazylog

type target = Replica of int | Shard_primary of int

type step =
  | Crash of { at : Engine.time; victim : int }
  | Partition of {
      at : Engine.time;
      until : Engine.time;
      a : target;
      b : target;
    }
  | Loss of { at : Engine.time; until : Engine.time; p : float }
  | Straggler of {
      at : Engine.time;
      until : Engine.time;
      who : target;
      delay : Engine.time;
    }
  (* Gray (fail-slow) verbs: nothing crashes, heartbeats stay green —
     the component is just slow or lossy in one direction. *)
  | Linkfault of {
      at : Engine.time;
      until : Engine.time;
      src : target;
      dst : target;
      delay : Engine.time;
      drop_p : float;
    }
  | Stutter of {
      at : Engine.time;
      until : Engine.time;
      who : target;
      period : Engine.time;
      stall : Engine.time;
    }
  | Degrade of {
      at : Engine.time;
      until : Engine.time;
      who : target;
      factor : float;
    }

type script = step list

let step_at = function
  | Crash { at; _ } | Partition { at; _ } | Loss { at; _ }
  | Straggler { at; _ } | Linkfault { at; _ } | Stutter { at; _ }
  | Degrade { at; _ } ->
    at

let sort script =
  List.stable_sort (fun a b -> Int.compare (step_at a) (step_at b)) script

(* ---------- printing / parsing (the artifact wire format) ---------- *)

let pp_target fmt = function
  | Replica i -> Format.fprintf fmt "r%d" i
  | Shard_primary i -> Format.fprintf fmt "s%d" i

let target_of_string s =
  let n () = int_of_string (String.sub s 1 (String.length s - 1)) in
  match s.[0] with
  | 'r' -> Replica (n ())
  | 's' -> Shard_primary (n ())
  | _ -> failwith ("fault_dsl: bad target " ^ s)

let pp_step fmt = function
  | Crash { at; victim } -> Format.fprintf fmt "crash at=%d victim=%d" at victim
  | Partition { at; until; a; b } ->
    Format.fprintf fmt "partition at=%d until=%d a=%a b=%a" at until pp_target
      a pp_target b
  | Loss { at; until; p } ->
    Format.fprintf fmt "loss at=%d until=%d p=%.17g" at until p
  | Straggler { at; until; who; delay } ->
    Format.fprintf fmt "straggler at=%d until=%d who=%a delay=%d" at until
      pp_target who delay
  | Linkfault { at; until; src; dst; delay; drop_p } ->
    Format.fprintf fmt "linkfault at=%d until=%d src=%a dst=%a delay=%d p=%.17g"
      at until pp_target src pp_target dst delay drop_p
  | Stutter { at; until; who; period; stall } ->
    Format.fprintf fmt "stutter at=%d until=%d who=%a period=%d stall=%d" at
      until pp_target who period stall
  | Degrade { at; until; who; factor } ->
    Format.fprintf fmt "degrade at=%d until=%d who=%a factor=%.17g" at until
      pp_target who factor

let step_to_string s = Format.asprintf "%a" pp_step s

let field kvs k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> failwith ("fault_dsl: missing field " ^ k)

let step_of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | kind :: rest ->
    let kvs =
      List.filter_map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some i ->
            Some
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
          | None -> None)
        rest
    in
    let i k = int_of_string (field kvs k) in
    (match kind with
    | "crash" -> Crash { at = i "at"; victim = i "victim" }
    | "partition" ->
      Partition
        {
          at = i "at";
          until = i "until";
          a = target_of_string (field kvs "a");
          b = target_of_string (field kvs "b");
        }
    | "loss" ->
      Loss { at = i "at"; until = i "until"; p = float_of_string (field kvs "p") }
    | "straggler" ->
      Straggler
        {
          at = i "at";
          until = i "until";
          who = target_of_string (field kvs "who");
          delay = i "delay";
        }
    | "linkfault" ->
      Linkfault
        {
          at = i "at";
          until = i "until";
          src = target_of_string (field kvs "src");
          dst = target_of_string (field kvs "dst");
          delay = i "delay";
          drop_p = float_of_string (field kvs "p");
        }
    | "stutter" ->
      Stutter
        {
          at = i "at";
          until = i "until";
          who = target_of_string (field kvs "who");
          period = i "period";
          stall = i "stall";
        }
    | "degrade" ->
      Degrade
        {
          at = i "at";
          until = i "until";
          who = target_of_string (field kvs "who");
          factor = float_of_string (field kvs "factor");
        }
    | _ -> failwith ("fault_dsl: unknown step " ^ kind))
  | [] -> failwith "fault_dsl: empty step"

(* ---------- random generation ----------

   A pure function of the given rng: the checker derives the rng from the
   scenario seed, so the script never needs to be stored to reproduce a
   run — only replayed artifacts carry explicit scripts (e.g. shrunk
   ones).

   Windows are kept short relative to the shard staging scrubber (100 ms):
   a loss or partition window long enough to stall ordering past the
   scrubber age would make the scrubber itself discard staged records, a
   (modeled) design assumption of the system rather than a protocol bug.

   [gray]: draw from the hostile-world distribution, which mixes the
   classic verbs with the gray ones (asymmetric link faults, disk stutter
   and degrade). The default distribution is byte-identical to the
   historical one, so pre-gray seeds regenerate their exact scripts. *)

let gen ?(gray = false) rng ~horizon ~nreplicas ~nshards =
  let ri = Random.State.int rng in
  let rf = Random.State.float rng in
  let nsteps = ri 5 in
  let crash_used = ref false in
  let gen_at () = Engine.ms 2 + ri (max 1 (horizon - Engine.ms 4)) in
  let gen_window at = at + Engine.us 200 + ri (Engine.ms 5) in
  let gen_target () =
    if nshards > 0 && ri 2 = 0 then Shard_primary (ri nshards)
    else Replica (ri (max 1 nreplicas))
  in
  let gen_classic at =
    match ri 100 with
    | k when k < 40 ->
      (* Loss windows are kept near the client append timeout (2 ms in
         the checker config): a window that ends between a failed
         attempt and its retry is the shape that exercises the
         retry-vs-binding races; much longer windows only push clients
         down the fresh-rid path. *)
      Loss
        {
          at;
          until = at + Engine.us 200 + ri (Engine.us 2_300);
          p = 0.1 +. rf 0.4;
        }
    | k when k < 65 ->
      Straggler
        {
          at;
          until = gen_window at;
          who = gen_target ();
          delay = Engine.us (20 + ri 400);
        }
    | k when k < 85 || !crash_used ->
      let a = gen_target () and b = gen_target () in
      Partition { at; until = gen_window at; a; b }
    | _ ->
      crash_used := true;
      Crash { at; victim = ri (max 1 nreplicas) }
  in
  let gen_gray at =
    match ri 100 with
    | k when k < 18 ->
      Loss
        {
          at;
          until = at + Engine.us 200 + ri (Engine.us 2_300);
          p = 0.1 +. rf 0.4;
        }
    | k when k < 34 ->
      Straggler
        {
          at;
          until = gen_window at;
          who = gen_target ();
          delay = Engine.us (20 + ri 400);
        }
    | k when k < 56 ->
      (* Asymmetric: one direction gets a full one-way partition, a pure
         delay, or both loss and delay; the reverse stays healthy. *)
      let delay, drop_p =
        match ri 3 with
        | 0 -> (0, 1.0)
        | 1 -> (Engine.us (30 + ri 370), 0.0)
        | _ -> (Engine.us (ri 200), 0.1 +. rf 0.4)
      in
      Linkfault
        {
          at;
          until = gen_window at;
          src = gen_target ();
          dst = gen_target ();
          delay;
          drop_p;
        }
    | k when k < 70 && nshards > 0 ->
      Stutter
        {
          at;
          until = gen_window at;
          who = Shard_primary (ri nshards);
          period = Engine.us (150 + ri 600);
          stall = Engine.us (400 + ri 2_100);
        }
    | k when k < 82 && nshards > 0 ->
      Degrade
        {
          at;
          until = gen_window at;
          who = Shard_primary (ri nshards);
          factor = 2.0 +. rf 6.0;
        }
    | k when k < 94 || !crash_used ->
      let a = gen_target () and b = gen_target () in
      Partition { at; until = gen_window at; a; b }
    | _ ->
      crash_used := true;
      Crash { at; victim = ri (max 1 nreplicas) }
  in
  let steps =
    List.init nsteps (fun _ ->
        let at = gen_at () in
        if gray then gen_gray at else gen_classic at)
  in
  (* Drop degenerate self-faults. *)
  let steps =
    List.filter
      (function
        | Partition { a; b; _ } -> a <> b
        | Linkfault { src; dst; _ } -> src <> dst
        | _ -> true)
      steps
  in
  sort steps

(* ---------- application ---------- *)

let resolve_node (cluster : Erwin_common.t) = function
  | Replica i -> (
    match cluster.replicas with
    | [] -> None
    | rs -> Some (Seq_replica.node (List.nth rs (i mod List.length rs))))
  | Shard_primary i -> (
    match Array.length cluster.shard_index with
    | 0 -> None
    | n ->
      Some
        (Fabric.node_by_id cluster.fabric
           (Shard.primary_id cluster.shard_index.(i mod n))))

(* Disk verbs only make sense against a shard (sequencing replicas are
   in-memory); a [Replica] target resolves to no device and the step is a
   no-op. *)
let resolve_disk (cluster : Erwin_common.t) = function
  | Replica _ -> None
  | Shard_primary i -> (
    match Array.length cluster.shard_index with
    | 0 -> None
    | n -> Some (Shard.replica_disk cluster.shard_index.(i mod n) 0))

let emit_gray kind until =
  if Probe.active () then Probe.emit (Probe.Gray_fault { kind; until })

(* Targets are resolved at fire time (not schedule time) against the
   then-current membership, so a script stays meaningful across view
   changes; [Replica 0] is "whoever leads when the fault fires". *)
let apply (cluster : Erwin_common.t) script =
  List.iter
    (fun step ->
      match step with
      | Crash { at; victim } ->
        Engine.at at (fun () ->
            match cluster.replicas with
            | [] -> ()
            | rs ->
              let r = List.nth rs (victim mod List.length rs) in
              if Fabric.is_alive (Seq_replica.node r) then
                Erwin_common.crash_replica cluster r)
      | Partition { at; until; a; b } ->
        Engine.at at (fun () ->
            match (resolve_node cluster a, resolve_node cluster b) with
            | Some na, Some nb when Fabric.id na <> Fabric.id nb ->
              let ia = Fabric.id na and ib = Fabric.id nb in
              Fabric.partition cluster.fabric ia ib;
              Engine.at until (fun () -> Fabric.heal cluster.fabric ia ib)
            | _ -> ())
      | Loss { at; until; p } ->
        Engine.at at (fun () ->
            Fabric.set_drop_probability cluster.fabric p;
            Engine.at until (fun () ->
                Fabric.set_drop_probability cluster.fabric 0.0))
      | Straggler { at; until; who; delay } ->
        Engine.at at (fun () ->
            match resolve_node cluster who with
            | Some n ->
              Fabric.set_extra_delay n delay;
              Engine.at until (fun () -> Fabric.set_extra_delay n 0)
            | None -> ())
      | Linkfault { at; until; src; dst; delay; drop_p } ->
        Engine.at at (fun () ->
            match (resolve_node cluster src, resolve_node cluster dst) with
            | Some ns, Some nd when Fabric.id ns <> Fabric.id nd ->
              let is_ = Fabric.id ns and id_ = Fabric.id nd in
              emit_gray "linkfault" until;
              Fabric.set_link_fault cluster.fabric ~src:is_ ~dst:id_ ~delay
                ~drop_p ();
              Engine.at until (fun () ->
                  Fabric.clear_link_fault cluster.fabric ~src:is_ ~dst:id_)
            | _ -> ())
      | Stutter { at; until; who; period; stall } ->
        Engine.at at (fun () ->
            match resolve_disk cluster who with
            | Some d ->
              emit_gray "stutter" until;
              Disk.set_fail_slow d (Disk.Stutter { period; stall });
              Engine.at until (fun () -> Disk.set_fail_slow d Disk.Healthy)
            | None -> ())
      | Degrade { at; until; who; factor } ->
        Engine.at at (fun () ->
            match resolve_disk cluster who with
            | Some d ->
              emit_gray "degrade" until;
              Disk.set_fail_slow d (Disk.Degrade { factor; until });
              Engine.at until (fun () -> Disk.set_fail_slow d Disk.Healthy)
            | None -> ()))
    script

type counts = {
  crashes : int;
  partitions : int;
  losses : int;
  stragglers : int;
  linkfaults : int;
  stutters : int;
  degrades : int;
}

let count_kind script =
  let crashes = ref 0
  and partitions = ref 0
  and losses = ref 0
  and stragglers = ref 0
  and linkfaults = ref 0
  and stutters = ref 0
  and degrades = ref 0 in
  List.iter
    (function
      | Crash _ -> incr crashes
      | Partition _ -> incr partitions
      | Loss _ -> incr losses
      | Straggler _ -> incr stragglers
      | Linkfault _ -> incr linkfaults
      | Stutter _ -> incr stutters
      | Degrade _ -> incr degrades)
    script;
  {
    crashes = !crashes;
    partitions = !partitions;
    losses = !losses;
    stragglers = !stragglers;
    linkfaults = !linkfaults;
    stutters = !stutters;
    degrades = !degrades;
  }
