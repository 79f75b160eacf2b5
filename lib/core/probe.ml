(* Lightweight observation hooks for the checker (lib/check).

   Subscribers are domain-local so parallel seed sweeps (one engine per
   domain) never share monitor state. With no subscriber registered the
   per-event cost is one DLS load and a list match — call sites guard the
   payload allocation with [if Probe.active () then ...]. *)

type event =
  | Append_invoked of { rid : Types.Rid.t }
  | Append_acked of { rid : Types.Rid.t }
  | Replica_sealed of { replica : int; view : int }
  | View_installed of { replica : int; view : int }
  | Stable_advanced of { gp : int }
  | Shard_stored of { shard : int; pos : int; rid : Types.Rid.t }
  | Shard_nooped of { shard : int; pos : int; rid : Types.Rid.t }
  | Shard_truncated of { shard : int; from : int }
  | Read_served of { shard : int; pos : int; rid : Types.Rid.t }
  | Crashed of { node : int }
  | Sub_registered of { name : string; from : int }
  | Sub_delivered of { name : string; pos : int; rid : Types.Rid.t }
  | Gray_fault of { kind : string; until : int }
  | Outlier_removed of { node : int }
  | Ingress_admitted of { replica : int; log : int }
  | Ingress_shed of { replica : int; log : int }

type handler = event -> unit

let dls : handler list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let active () = !(Domain.DLS.get dls) <> []

let emit ev = List.iter (fun h -> h ev) !(Domain.DLS.get dls)

let subscribe h =
  let subs = Domain.DLS.get dls in
  subs := h :: !subs

let reset () = Domain.DLS.get dls := []

let pp_event fmt =
  let rid = Types.Rid.pp in
  function
  | Append_invoked e -> Format.fprintf fmt "append-invoked %a" rid e.rid
  | Append_acked e -> Format.fprintf fmt "append-acked %a" rid e.rid
  | Replica_sealed e ->
    Format.fprintf fmt "replica-sealed r%d view=%d" e.replica e.view
  | View_installed e ->
    Format.fprintf fmt "view-installed r%d view=%d" e.replica e.view
  | Stable_advanced e -> Format.fprintf fmt "stable-advanced gp=%d" e.gp
  | Shard_stored e ->
    Format.fprintf fmt "shard-stored s%d pos=%d %a" e.shard e.pos rid e.rid
  | Shard_nooped e ->
    Format.fprintf fmt "shard-nooped s%d pos=%d %a" e.shard e.pos rid e.rid
  | Shard_truncated e ->
    Format.fprintf fmt "shard-truncated s%d from=%d" e.shard e.from
  | Read_served e ->
    Format.fprintf fmt "read-served s%d pos=%d %a" e.shard e.pos rid e.rid
  | Crashed e -> Format.fprintf fmt "crashed node=%d" e.node
  | Sub_registered e ->
    Format.fprintf fmt "sub-registered %s from=%d" e.name e.from
  | Sub_delivered e ->
    Format.fprintf fmt "sub-delivered %s pos=%d %a" e.name e.pos rid e.rid
  | Gray_fault e ->
    Format.fprintf fmt "gray-fault %s until=%d" e.kind e.until
  | Outlier_removed e -> Format.fprintf fmt "outlier-removed node=%d" e.node
  | Ingress_admitted e ->
    Format.fprintf fmt "ingress-admitted r%d log=%d" e.replica e.log
  | Ingress_shed e ->
    Format.fprintf fmt "ingress-shed r%d log=%d" e.replica e.log
