type violation = {
  property : [ `Order | `Result | `Liveness | `Replay ];
  info : string;
}

let pp_violation ppf v =
  let name =
    match v.property with
    | `Order -> "order"
    | `Result -> "result"
    | `Liveness -> "liveness"
    | `Replay -> "replay"
  in
  Format.fprintf ppf "SMR %s violation: %s" name v.info

(* The outputs of each of [pids] that [f] keeps, in trace order, from one
   pass over the trace however many pids are asked for. *)
let outputs_by_pid trace pids f =
  let acc = Hashtbl.create 16 in
  List.iter (fun pid -> Hashtbl.replace acc pid []) pids;
  List.iter
    (function
      | Thc_sim.Trace.Output { pid; obs; _ } -> (
        match Hashtbl.find_opt acc pid with
        | Some xs -> (
          match f obs with Some x -> Hashtbl.replace acc pid (x :: xs) | None -> ())
        | None -> ())
      | _ -> ())
    trace.Thc_sim.Trace.entries;
  Hashtbl.filter_map_inplace (fun _ xs -> Some (List.rev xs)) acc;
  Hashtbl.find acc

let execution (obs : Thc_sim.Obs.t) =
  match obs with
  | Executed { seq; op; result } -> Some (seq, (op, result))
  | _ -> None

let check_safety trace ~replicas =
  let violations = ref [] in
  let add property info = violations := { property; info } :: !violations in
  let correct =
    List.filter (fun p -> p < replicas) (Thc_sim.Trace.correct_pids trace)
  in
  let executions_of = outputs_by_pid trace correct execution in
  (* Each replica's executions, and a seq-keyed table of them that keeps a
     seq's first execution, as [List.assoc_opt] on the list would. *)
  let execs =
    List.map
      (fun pid ->
        let ep = executions_of pid in
        let first = Hashtbl.create (List.length ep) in
        List.iter
          (fun (seq, e) -> if not (Hashtbl.mem first seq) then Hashtbl.add first seq e)
          ep;
        (pid, ep, first))
      correct
  in
  List.iter
    (fun (p, ep, _) ->
      List.iter
        (fun (q, _, first_q) ->
          if p < q then
            List.iter
              (fun (seq, (op, result)) ->
                match Hashtbl.find_opt first_q seq with
                | None -> ()  (* prefix difference is fine mid-run *)
                | Some (op', result') ->
                  if not (String.equal op op') then
                    add `Order
                      (Printf.sprintf "p%d/p%d differ at seq %d" p q seq)
                  else if not (String.equal result result') then
                    add `Result
                      (Printf.sprintf "p%d/p%d diverge at seq %d" p q seq))
              ep)
        execs)
    execs;
  List.rev !violations

let exec_event (obs : Thc_sim.Obs.t) =
  match obs with
  | Executed { seq; op; result } -> Some (`Exec (seq, op, result))
  | Recovered { exec_count; _ } -> Some (`Recovered exec_count)
  | _ -> None

let check_state_determinism trace ~replicas =
  let violations = ref [] in
  let add info = violations := { property = `Replay; info } :: !violations in
  let correct =
    List.filter (fun p -> p < replicas) (Thc_sim.Trace.correct_pids trace)
  in
  let exec_events = outputs_by_pid trace correct exec_event in
  List.iter
    (fun pid ->
      let store = Kv_store.create () in
      (* Stop at the first density break: replaying past a gap would only
         cascade spurious result mismatches.  A [Recovered] marker is a
         state transfer: the store jumped to the donor's checkpoint and
         the ops below it are compacted away, so from that point the
         replay can only check execution density — cross-replica result
         agreement past the jump is {!check_safety}'s job. *)
      let rec replay ~verify i = function
        | [] -> ()
        | `Recovered exec_count :: rest ->
          replay ~verify:false (exec_count + 1) rest
        | `Exec (seq, op, result) :: rest ->
          if seq <> i then
            add
              (Printf.sprintf "p%d executed seq %d at position %d (dense order broken)"
                 pid seq i)
          else begin
            if verify then begin
              let replayed =
                Kv_store.encode_result (Kv_store.apply store (Kv_store.decode_op op))
              in
              if not (String.equal replayed result) then
                add
                  (Printf.sprintf
                     "p%d seq %d: recorded result differs from sequential replay" pid seq)
            end;
            replay ~verify (i + 1) rest
          end
      in
      replay ~verify:true 1 (exec_events pid))
    correct;
  List.rev !violations

let check_liveness trace ~expected =
  let done_rids_of =
    outputs_by_pid trace (List.map fst expected) (fun (obs : Thc_sim.Obs.t) ->
        match obs with Client_done { rid; _ } -> Some rid | _ -> None)
  in
  let violations = ref [] in
  List.iter
    (fun (client, rids) ->
      let done_rids = Hashtbl.create 64 in
      List.iter (fun rid -> Hashtbl.replace done_rids rid ()) (done_rids_of client);
      List.iter
        (fun rid ->
          if not (Hashtbl.mem done_rids rid) then
            violations :=
              {
                property = `Liveness;
                info =
                  Printf.sprintf "client p%d request #%d incomplete" client rid;
              }
              :: !violations)
        rids)
    expected;
  List.rev !violations

let expect_range ~clients ~per_client ~first_client_pid =
  List.init clients (fun i ->
      ( first_client_pid + i,
        List.init per_client (fun r -> (i * per_client) + r) ))

let latencies_by_client trace =
  let tbl : (int, float list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, pid, obs) ->
      match (obs : Thc_sim.Obs.t) with
      | Client_done { latency_us; _ } ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl pid) in
        Hashtbl.replace tbl pid (Int64.to_float latency_us :: prev)
      | _ -> ())
    (Thc_sim.Trace.outputs trace);
  Hashtbl.fold (fun pid ls acc -> (pid, List.rev ls) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let client_latencies trace =
  List.filter_map
    (fun (_, _, obs) ->
      match (obs : Thc_sim.Obs.t) with
      | Client_done { latency_us; _ } -> Some (Int64.to_float latency_us)
      | _ -> None)
    (Thc_sim.Trace.outputs trace)

let executed_count trace ~pid =
  List.length (outputs_by_pid trace [ pid ] execution pid)

let commits trace ~replicas =
  let seqs = Hashtbl.create 256 in
  List.iter
    (function
      | Thc_sim.Trace.Output { pid; obs = Committed { seq; _ }; _ }
        when pid < replicas && Thc_sim.Trace.correct trace pid ->
        Hashtbl.replace seqs seq ()
      | _ -> ())
    trace.Thc_sim.Trace.entries;
  Hashtbl.length seqs
