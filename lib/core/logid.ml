(* The multi-log keyspace packs (log, position) into one int:

     packed = (log lsl shift) lor pos

   Log 0 therefore packs to the raw position, so a log-0 position needs
   no translation anywhere (wire messages, shard stores, the
   [mod nshards] placement rule and the monitors all work on the packed
   value). Positions within a log are dense; distinct logs occupy
   disjoint ranges, so numeric comparison doubles as per-log comparison
   whenever both sides belong to the same log. Counters kept per log id
   (frontiers, cursors, live counts) live in a [Log_table], which looks
   up log 0 like any other log. *)

let shift = 40

let max_pos = (1 lsl shift) - 1

let max_logs = 1 lsl (62 - shift)

let pack ~log pos =
  if log < 0 || log >= max_logs then invalid_arg "Logid.pack: bad log id";
  if pos < 0 || pos > max_pos then invalid_arg "Logid.pack: bad position";
  (log lsl shift) lor pos

let log_of packed = packed lsr shift

let pos_of packed = packed land max_pos

let base ~log = log lsl shift

let pp fmt packed =
  if log_of packed = 0 then Format.fprintf fmt "%d" packed
  else Format.fprintf fmt "%d@%d" (pos_of packed) (log_of packed)
