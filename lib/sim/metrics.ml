let kind_counts trace ~classify =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun entry ->
      match entry with
      | Trace.Sent { msg; _ } ->
        let kind = classify msg in
        Hashtbl.replace counts kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind))
      | _ -> ())
    trace.Trace.entries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let sends_by_source trace =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun entry ->
      match entry with
      | Trace.Sent { src; _ } ->
        Hashtbl.replace counts src
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts src))
      | _ -> ())
    trace.Trace.entries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort compare

type delivery_report = {
  latencies : float list;
  delivered : int;
  held_at_end : int;
  dropped : int;
  in_flight_at_end : int;
}

(* Where one engine sequence number has been.  A held message can later be
   delivered (link healed) or dropped (link degraded); only seqs whose
   last state is Held are still queued when the trace ends. *)
type lifecycle = {
  mutable sent_at : int64;  (* time of the latest Sent, or [never_sent] *)
  mutable delivered : bool;
  mutable dropped : bool;
  mutable held : bool;
}

let never_sent = Int64.min_int

module Seq_tbl = Hashtbl.Make (Int)

let delivery_report trace =
  let seqs = Seq_tbl.create 1024 in
  let lifecycle seq =
    match Seq_tbl.find_opt seqs seq with
    | Some l -> l
    | None ->
      let l = { sent_at = never_sent; delivered = false; dropped = false; held = false } in
      Seq_tbl.add seqs seq l;
      l
  in
  let latencies = ref [] in
  List.iter
    (fun entry ->
      match entry with
      | Trace.Sent { time; seq; _ } -> (lifecycle seq).sent_at <- time
      | Trace.Delivered { time; seq; _ } ->
        let l = lifecycle seq in
        l.delivered <- true;
        if l.sent_at <> never_sent then
          latencies := Int64.to_float (Int64.sub time l.sent_at) :: !latencies
      | Trace.Dropped { seq; _ } -> (lifecycle seq).dropped <- true
      | Trace.Held { seq; _ } -> (lifecycle seq).held <- true
      | Trace.Timer_fired _ | Trace.Crashed _ | Trace.Output _ -> ())
    trace.Trace.entries;
  let sent = ref 0 and delivered = ref 0 and dropped = ref 0 and held_at_end = ref 0 in
  Seq_tbl.iter
    (fun _ l ->
      if l.sent_at <> never_sent then incr sent;
      if l.delivered then incr delivered;
      if l.dropped then incr dropped;
      if l.held && not (l.delivered || l.dropped) then incr held_at_end)
    seqs;
  {
    latencies = List.rev !latencies;
    delivered = !delivered;
    held_at_end = !held_at_end;
    dropped = !dropped;
    in_flight_at_end = !sent - !delivered - !dropped - !held_at_end;
  }
