(* Tests for the discrete-event engine: delivery, timers, crashes, link
   reconfiguration (block/hold/release/drop), determinism, trace queries. *)

let qcheck = QCheck_alcotest.to_alcotest

type msg = Ping of int

let net ?(delay = Thc_sim.Delay.Const 100L) n = Thc_sim.Net.create ~n ~default:delay

let recorder received : msg Thc_sim.Engine.behavior =
  {
    init = (fun _ -> ());
    on_message =
      (fun ctx ~src (Ping k) -> received := (ctx.now (), src, k) :: !received);
    on_timer = (fun _ _ -> ());
  }

let sender_at ~at ~dst k : msg Thc_sim.Engine.behavior =
  {
    init = (fun ctx -> ctx.set_timer ~delay:at ~tag:0);
    on_message = (fun _ ~src:_ _ -> ());
    on_timer = (fun ctx _ -> ctx.send dst (Ping k));
  }

(* --- delivery ---------------------------------------------------------------- *)

let test_delivery_delay () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 7);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  let trace = Thc_sim.Engine.run engine in
  (match !received with
  | [ (time, 0, 7) ] -> Alcotest.(check int64) "arrives at send+delay" 150L time
  | _ -> Alcotest.fail "expected exactly one delivery");
  Alcotest.(check int) "one send in trace" 1 (Thc_sim.Trace.messages_sent trace)

let test_broadcast_includes_self () =
  let n = 3 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> if ctx.self = 0 then ctx.broadcast (Ping 1));
      on_message = (fun ctx ~src:_ _ -> received := ctx.self :: !received);
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check (list int)) "all three receive, self included" [ 0; 1; 2 ]
    (List.sort compare !received)

let test_others_excludes_self () =
  let n = 3 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> if ctx.self = 0 then ctx.others (Ping 1));
      on_message = (fun ctx ~src:_ _ -> received := ctx.self :: !received);
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check (list int)) "only others receive" [ 1; 2 ]
    (List.sort compare !received)

(* --- timers -------------------------------------------------------------------- *)

let test_timer_order () =
  let n = 1 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let fired = ref [] in
  let b : msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.set_timer ~delay:300L ~tag:3;
          ctx.set_timer ~delay:100L ~tag:1;
          ctx.set_timer ~delay:200L ~tag:2);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ tag -> fired := tag :: !fired);
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check (list int)) "timers fire in time order" [ 1; 2; 3 ]
    (List.rev !fired)

(* --- crash --------------------------------------------------------------------- *)

let test_crash_stops_delivery () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:500L ~dst:1 9);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Engine.schedule_crash engine ~pid:1 ~at:100L;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "no deliveries after crash" 0 (List.length !received);
  Alcotest.(check bool) "crashed not correct" false (Thc_sim.Trace.correct trace 1);
  Alcotest.(check (list int)) "correct pids" [ 0 ] (Thc_sim.Trace.correct_pids trace)

let test_crashed_process_sends_nothing () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:500L ~dst:1 9);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Engine.schedule_crash engine ~pid:0 ~at:100L;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "no messages sent" 0 (Thc_sim.Trace.messages_sent trace)

(* --- link reconfiguration --------------------------------------------------------- *)

let test_block_holds_then_releases () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 5);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Block;
  Thc_sim.Engine.at engine 1_000L (fun () ->
      Thc_sim.Engine.set_link engine ~src:0 ~dst:1
        (Thc_sim.Net.Deliver (Thc_sim.Delay.Const 10L)));
  let trace = Thc_sim.Engine.run engine in
  (match !received with
  | [ (time, 0, 5) ] ->
    Alcotest.(check int64) "released at heal + delay" 1_010L time
  | _ -> Alcotest.fail "expected exactly one delivery");
  let held =
    Thc_sim.Trace.count trace (function Thc_sim.Trace.Held _ -> true | _ -> false)
  in
  Alcotest.(check int) "held entry recorded" 1 held

let test_drop () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 5);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Drop;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "nothing delivered" 0 (List.length !received);
  Alcotest.(check int) "drop recorded" 1
    (Thc_sim.Trace.count trace (function Thc_sim.Trace.Dropped _ -> true | _ -> false))

let test_heal_all () =
  let n = 3 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:10L ~dst:2 1);
  Thc_sim.Engine.set_behavior engine 1 (sender_at ~at:10L ~dst:2 2);
  Thc_sim.Engine.set_behavior engine 2 (recorder received);
  Thc_sim.Net.set_to (Thc_sim.Engine.net engine) ~dst:2 Thc_sim.Net.Block;
  Thc_sim.Engine.at engine 500L (fun () ->
      Thc_sim.Engine.heal_all engine (Thc_sim.Delay.Const 1L));
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check int) "both held messages arrive after heal_all" 2
    (List.length !received)

let test_isolate_groups () =
  let net = Thc_sim.Net.create ~n:4 ~default:(Thc_sim.Delay.Const 1L) in
  Thc_sim.Net.isolate_groups net ~groups:[ [ 0; 1 ] ] Thc_sim.Net.Block;
  let blocked src dst =
    match Thc_sim.Net.get net ~src ~dst with
    | Thc_sim.Net.Block -> true
    | Thc_sim.Net.Deliver _ | Thc_sim.Net.Drop -> false
  in
  Alcotest.(check bool) "within group open" false (blocked 0 1);
  Alcotest.(check bool) "implicit group open" false (blocked 2 3);
  Alcotest.(check bool) "cross blocked" true (blocked 0 2);
  Alcotest.(check bool) "cross blocked reverse" true (blocked 3 1)

(* --- determinism ------------------------------------------------------------------- *)

let chatty seed =
  let n = 4 in
  let engine =
    Thc_sim.Engine.create ~seed ~n
      ~net:(net ~delay:(Thc_sim.Delay.Uniform (10L, 500L)) n)
      ()
  in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.broadcast (Ping ctx.self));
      on_message =
        (fun ctx ~src:_ (Ping k) ->
          if k < 3 then ctx.send (Thc_util.Rng.int ctx.rng 4) (Ping (k + 1)));
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  Thc_sim.Engine.run engine

let test_determinism () =
  let t1 = chatty 42L in
  let t2 = chatty 42L in
  Alcotest.(check string) "same seed, identical traces"
    (Thc_util.Codec.encode t1.Thc_sim.Trace.entries)
    (Thc_util.Codec.encode t2.Thc_sim.Trace.entries)

let test_seed_changes_schedule () =
  let t1 = chatty 42L in
  let t2 = chatty 43L in
  Alcotest.(check bool) "different seed, different schedule" true
    (Thc_util.Codec.encode t1.Thc_sim.Trace.entries
    <> Thc_util.Codec.encode t2.Thc_sim.Trace.entries)

(* --- engine hot path (calendar queue + arena) --------------------------------------- *)

(* Documented ordering invariant: events scheduled for the same virtual
   time dispatch in push order (Engine.push's per-engine tie counter).
   Every driver's byte-determinism rests on this, so it gets a direct
   regression test: a timer, a Const-delay self-send landing at the same
   instant, and two more timers — popped exactly as pushed. *)
let test_tie_break_insertion_order () =
  let n = 1 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let log = ref [] in
  let b : msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.set_timer ~delay:100L ~tag:1;
          ctx.send 0 (Ping 2);
          ctx.set_timer ~delay:100L ~tag:3;
          ctx.set_timer ~delay:100L ~tag:1);
      on_message = (fun _ ~src:_ (Ping k) -> log := k :: !log);
      on_timer = (fun _ tag -> log := tag :: !log);
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check (list int))
    "same virtual time pops in push order" [ 1; 2; 3; 1 ] (List.rev !log)

(* A run busy enough to cycle the event arena and the held-buffer pool:
   broadcasts, RNG-routed forwards, outputs on pid 0, a mid-run crash. *)
let busy ?(recycle = true) ?(tracing = Thc_sim.Engine.Full) seed =
  let n = 4 in
  let engine =
    Thc_sim.Engine.create ~seed ~tracing ~recycle ~n
      ~net:(net ~delay:(Thc_sim.Delay.Uniform (10L, 500L)) n)
      ()
  in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.broadcast (Ping ctx.self));
      on_message =
        (fun ctx ~src:_ (Ping k) ->
          if ctx.self = 0 then ctx.output (Thc_sim.Obs.Note (string_of_int k));
          if k < 3 then ctx.send (Thc_util.Rng.int ctx.rng 4) (Ping (k + 1)));
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  Thc_sim.Engine.schedule_crash engine ~pid:3 ~at:400L;
  let trace = Thc_sim.Engine.run engine in
  (trace, Thc_sim.Engine.events_processed engine)

(* Arena recycling must be invisible: a reused event record with a stale
   field would corrupt the trace or the schedule, so the recycling and
   fresh-allocation engines must agree byte for byte. *)
let test_recycle_equivalence () =
  let tr, er = busy ~recycle:true 7L in
  let tf, ef = busy ~recycle:false 7L in
  Alcotest.(check string) "identical traces with and without recycling"
    (Thc_util.Codec.encode tr.Thc_sim.Trace.entries)
    (Thc_util.Codec.encode tf.Thc_sim.Trace.entries);
  Alcotest.(check int64)
    "identical end time" tr.Thc_sim.Trace.end_time tf.Thc_sim.Trace.end_time;
  Alcotest.(check int) "identical event count" er ef;
  let report t =
    let r = Thc_sim.Metrics.delivery_report t in
    ( List.length r.Thc_sim.Metrics.latencies,
      r.Thc_sim.Metrics.delivered,
      r.Thc_sim.Metrics.held_at_end,
      r.Thc_sim.Metrics.dropped,
      r.Thc_sim.Metrics.in_flight_at_end )
  in
  Alcotest.(check (pair int (pair int (pair int (pair int int)))))
    "identical delivery report"
    (let a, b, c, d, e = report tr in
     (a, (b, (c, (d, e)))))
    (let a, b, c, d, e = report tf in
     (a, (b, (c, (d, e)))))

(* Tracing modes drop records, never events: Outputs_only keeps exactly
   the Output/Crashed subsequence of the Full trace, Off keeps nothing,
   and the schedule (event count, end time) is identical in all three. *)
let test_tracing_modes () =
  let full, e_full = busy ~tracing:Thc_sim.Engine.Full 7L in
  let lite, e_lite = busy ~tracing:Thc_sim.Engine.Outputs_only 7L in
  let off, e_off = busy ~tracing:Thc_sim.Engine.Off 7L in
  let key_only entries =
    List.filter
      (function
        | Thc_sim.Trace.Output _ | Thc_sim.Trace.Crashed _ -> true
        | _ -> false)
      entries
  in
  Alcotest.(check string) "Outputs_only = Full filtered to Output/Crashed"
    (Thc_util.Codec.encode (key_only full.Thc_sim.Trace.entries))
    (Thc_util.Codec.encode lite.Thc_sim.Trace.entries);
  Alcotest.(check int) "Off records nothing" 0
    (List.length off.Thc_sim.Trace.entries);
  Alcotest.(check int64) "lite end time"
    full.Thc_sim.Trace.end_time lite.Thc_sim.Trace.end_time;
  Alcotest.(check int64) "off end time"
    full.Thc_sim.Trace.end_time off.Thc_sim.Trace.end_time;
  Alcotest.(check int) "lite event count" e_full e_lite;
  Alcotest.(check int) "off event count" e_full e_off

(* --- outputs and queries ------------------------------------------------------------ *)

let test_outputs () =
  let n = 1 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let b : msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.output (Thc_sim.Obs.Note "one");
          ctx.output (Thc_sim.Obs.Decided (Some "v")));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "two outputs" 2 (List.length (Thc_sim.Trace.outputs_of trace 0));
  (match Thc_sim.Trace.decision_of trace 0 with
  | Some (Some "v") -> ()
  | _ -> Alcotest.fail "decision not found")

let test_until_bound () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:5_000L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  ignore (Thc_sim.Engine.run ~until:1_000L engine);
  Alcotest.(check int) "events past the bound unprocessed" 0
    (List.length !received)

let test_stop_reason () =
  let stop ?until () =
    let engine = Thc_sim.Engine.create ~n:2 ~net:(net 2) () in
    Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:5_000L ~dst:1 1);
    Thc_sim.Engine.set_behavior engine 1 (recorder (ref []));
    (match Thc_sim.Engine.stop_reason engine with
    | _ -> Alcotest.fail "stop reason before the run"
    | exception Invalid_argument _ -> ());
    ignore (Thc_sim.Engine.run ?until engine);
    Thc_sim.Engine.stop_reason engine
  in
  let reason =
    Alcotest.testable
      (fun ppf r ->
        Format.pp_print_string ppf
          (match r with `Quiescent -> "quiescent" | `Horizon -> "horizon"))
      ( = )
  in
  Alcotest.check reason "event left past until" `Horizon (stop ~until:1_000L ());
  Alcotest.check reason "queue ran dry before until" `Quiescent
    (stop ~until:1_000_000L ());
  Alcotest.check reason "no until" `Quiescent (stop ())

let test_event_limit () =
  let n = 1 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.set_timer ~delay:1L ~tag:0);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun ctx _ -> ctx.set_timer ~delay:1L ~tag:0);
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  (match Thc_sim.Engine.run ~max_events:100 engine with
  | _ -> Alcotest.fail "expected event-limit failure"
  | exception Failure _ -> ())

let test_reception_transcript () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:10L ~dst:1 3);
  Thc_sim.Engine.set_behavior engine 1
    { (recorder (ref [])) with on_message = (fun _ ~src:_ _ -> ()) };
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "one entry in p1's transcript" 1
    (List.length (Thc_sim.Trace.reception_transcript trace 1));
  Alcotest.(check int) "p0 received nothing" 0
    (List.length (Thc_sim.Trace.reception_transcript trace 0))

(* --- delay distributions -------------------------------------------------------------- *)

let prop_delay_uniform_bounds =
  QCheck.Test.make ~name:"uniform delays stay within bounds" ~count:300
    QCheck.(pair int64 (pair (int_bound 1000) (int_bound 1000)))
    (fun (seed, (a, b)) ->
      let lo = Int64.of_int (min a b) in
      let hi = Int64.of_int (max a b) in
      let g = Thc_util.Rng.create seed in
      let d = Thc_sim.Delay.sample g (Thc_sim.Delay.Uniform (lo, hi)) in
      d >= lo && d <= hi)

let prop_delay_exponential_positive =
  QCheck.Test.make ~name:"exponential delays are at least 1" ~count:300
    QCheck.int64
    (fun seed ->
      let g = Thc_util.Rng.create seed in
      Thc_sim.Delay.sample g (Thc_sim.Delay.Exponential 200.0) >= 1L)

(* --- metrics ---------------------------------------------------------------------- *)

let test_metrics_kind_counts () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let b : msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          if ctx.self = 0 then begin
            ctx.send 1 (Ping 1);
            ctx.send 1 (Ping 1);
            ctx.send 1 (Ping 2)
          end);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  let trace = Thc_sim.Engine.run engine in
  let counts =
    Thc_sim.Metrics.kind_counts trace ~classify:(fun (Ping k) ->
        if k = 1 then "one" else "other")
  in
  Alcotest.(check (list (pair string int))) "grouped and sorted"
    [ ("one", 2); ("other", 1) ] counts;
  Alcotest.(check (list (pair int int))) "sends by source" [ (0, 3) ]
    (Thc_sim.Metrics.sends_by_source trace)

let test_metrics_delivery_latency () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:10L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  let trace = Thc_sim.Engine.run engine in
  match (Thc_sim.Metrics.delivery_report trace).latencies with
  | [ l ] -> Alcotest.(check (float 0.01)) "matches link delay" 100.0 l
  | _ -> Alcotest.fail "expected one latency sample"

let test_metrics_seq_matching () =
  (* Every Delivered seq must refer to a Sent seq on the same (src, dst)
     link — the invariant delivery_report's matching relies on. *)
  let n = 3 in
  let engine =
    Thc_sim.Engine.create ~seed:5L ~n
      ~net:(net ~delay:(Thc_sim.Delay.Uniform (10L, 500L)) n)
      ()
  in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.broadcast (Ping ctx.self));
      on_message =
        (fun ctx ~src:_ (Ping k) -> if k < 2 then ctx.others (Ping (k + 1)));
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  let trace = Thc_sim.Engine.run engine in
  let sent = Hashtbl.create 64 in
  List.iter
    (function
      | Thc_sim.Trace.Sent { src; dst; seq; _ } ->
        if Hashtbl.mem sent (src, dst, seq) then
          Alcotest.fail "duplicate send seq on a link";
        Hashtbl.add sent (src, dst, seq) ()
      | _ -> ())
    trace.Thc_sim.Trace.entries;
  List.iter
    (function
      | Thc_sim.Trace.Delivered { src; dst; seq; _ } ->
        if not (Hashtbl.mem sent (src, dst, seq)) then
          Alcotest.fail "delivery without a matching send"
      | _ -> ())
    trace.Thc_sim.Trace.entries;
  let r = Thc_sim.Metrics.delivery_report trace in
  Alcotest.(check int) "every send accounted for"
    (Thc_sim.Trace.messages_sent trace)
    (r.delivered + r.dropped + r.held_at_end + r.in_flight_at_end);
  Alcotest.(check int) "one latency per delivery" r.delivered
    (List.length r.latencies)

let test_metrics_delivery_report_held () =
  (* A message still queued on a blocked link when the horizon hits must be
     counted as held_at_end, not silently excluded. *)
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Block;
  let trace = Thc_sim.Engine.run ~until:1_000L engine in
  let r = Thc_sim.Metrics.delivery_report trace in
  Alcotest.(check int) "held at end" 1 r.held_at_end;
  Alcotest.(check int) "nothing delivered" 0 r.delivered;
  Alcotest.(check int) "nothing dropped" 0 r.dropped;
  Alcotest.(check int) "nothing in flight" 0 r.in_flight_at_end;
  Alcotest.(check int) "no latency samples" 0 (List.length r.latencies)

let test_metrics_delivery_report_dropped () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Drop;
  let trace = Thc_sim.Engine.run engine in
  let r = Thc_sim.Metrics.delivery_report trace in
  Alcotest.(check int) "dropped" 1 r.dropped;
  Alcotest.(check int) "not held" 0 r.held_at_end

(* --- adversary scripts ---------------------------------------------------------- *)

let test_adversary_random_admissible () =
  for i = 1 to 50 do
    let rng = Thc_util.Rng.create (Int64.of_int i) in
    let script =
      Thc_sim.Adversary.random rng ~n:5 ~horizon:100_000L ~crash_budget:2 ()
    in
    let crashed = Thc_sim.Adversary.crashed script in
    if List.length crashed > 2 then Alcotest.fail "crash budget exceeded";
    if List.length (List.sort_uniq compare crashed) <> List.length crashed then
      Alcotest.fail "duplicate crash victim";
    List.iter
      (fun (e : Thc_sim.Adversary.event) ->
        if e.at < 0L || e.at > 100_000L then Alcotest.fail "event out of horizon")
      script.events
  done

let test_adversary_install_heals () =
  (* A message sent during the partition must be delivered after the final
     heal: install guarantees eventual delivery. *)
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:5_000L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Adversary.install
    {
      Thc_sim.Adversary.events =
        [ { at = 0L; action = Thc_sim.Adversary.Block_link (0, 1) } ];
      horizon = 50_000L;
    }
    engine;
  ignore (Thc_sim.Engine.run engine);
  (match !received with
  | [ (time, 0, 1) ] ->
    if time < 50_000L then Alcotest.fail "delivered before the heal"
  | _ -> Alcotest.fail "held message lost: eventual delivery broken")

let test_adversary_partition_blocks_cross_only () =
  let n = 4 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Adversary.install
    {
      Thc_sim.Adversary.events =
        [ { at = 0L; action = Thc_sim.Adversary.Block_groups [ [ 0; 1 ]; [ 2; 3 ] ] } ];
      horizon = 100_000L;
    }
    engine;
  ignore (Thc_sim.Engine.run ~until:1L engine);
  let blocked src dst =
    match Thc_sim.Net.get (Thc_sim.Engine.net engine) ~src ~dst with
    | Thc_sim.Net.Block -> true
    | Thc_sim.Net.Deliver _ | Thc_sim.Net.Drop -> false
  in
  Alcotest.(check bool) "cross blocked" true (blocked 0 2);
  Alcotest.(check bool) "within open" false (blocked 0 1)

let prop_adversary_sexp_roundtrip =
  QCheck.Test.make ~name:"adversary sexp codec round-trips" ~count:100
    QCheck.(pair int64 (int_bound 3))
    (fun (seed, crash_budget) ->
      let rng = Thc_util.Rng.create seed in
      let script =
        Thc_sim.Adversary.random rng ~n:5 ~horizon:100_000L ~crash_budget ()
      in
      let text = Thc_util.Sexp.to_string (Thc_sim.Adversary.to_sexp script) in
      let back =
        Thc_sim.Adversary.of_sexp (Thc_util.Sexp.of_string_exn text)
      in
      Thc_sim.Adversary.equal script back)

let test_adversary_block_at_horizon_still_heals () =
  (* The subtle ordering case: a block event at exactly [horizon].  The
     appended heal shares its timestamp, and the engine breaks the tie by
     insertion order — install pushes the heal last, so the run must end on
     a healed network, not a blocked one. *)
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 Thc_sim.Engine.no_op;
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  Thc_sim.Adversary.install
    {
      Thc_sim.Adversary.events =
        [ { at = 50_000L; action = Thc_sim.Adversary.Block_link (0, 1) } ];
      horizon = 50_000L;
    }
    engine;
  ignore (Thc_sim.Engine.run engine);
  (match Thc_sim.Net.get (Thc_sim.Engine.net engine) ~src:0 ~dst:1 with
  | Thc_sim.Net.Deliver _ -> ()
  | Thc_sim.Net.Block | Thc_sim.Net.Drop ->
    Alcotest.fail "link still blocked after the horizon heal")

let test_adversary_unsorted_script_heals () =
  (* Events listed out of time order: the heal is scripted {e before} the
     block in the list but {e after} it in time.  ends_healed/install must
     judge the time-sorted view, append the horizon heal, and deliver the
     held message. *)
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:45_000L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Adversary.install
    {
      Thc_sim.Adversary.events =
        [
          { at = 40_000L; action = Thc_sim.Adversary.Block_link (0, 1) };
          { at = 10_000L; action = Thc_sim.Adversary.Heal };
        ];
      horizon = 50_000L;
    }
    engine;
  ignore (Thc_sim.Engine.run engine);
  (match !received with
  | [ (time, 0, 1) ] ->
    if time < 50_000L then Alcotest.fail "delivered before the horizon heal"
  | _ -> Alcotest.fail "held message lost: unsorted script skipped the heal")

let test_adversary_corrupt_roundtrip () =
  (* Scripts carrying [Corrupt] events — the attack-catalog extension — must
     survive the repro codec byte-for-byte like every other action. *)
  let script =
    {
      Thc_sim.Adversary.events =
        [
          { at = 1L; action = Thc_sim.Adversary.Corrupt { pid = 0; attack = "equivocation" } };
          { at = 5_000L; action = Thc_sim.Adversary.Block_link (1, 2) };
          { at = 9_000L; action = Thc_sim.Adversary.Heal };
        ];
      horizon = 10_000L;
    }
  in
  let text = Thc_util.Sexp.to_string (Thc_sim.Adversary.to_sexp script) in
  let back = Thc_sim.Adversary.of_sexp (Thc_util.Sexp.of_string_exn text) in
  Alcotest.(check bool) "corrupt round-trips" true
    (Thc_sim.Adversary.equal script back);
  Alcotest.(check (list (pair int string)))
    "corrupted pairs" [ (0, "equivocation") ]
    (Thc_sim.Adversary.corrupted back)

let test_adversary_admissible_budgets () =
  let corrupt ~at pid attack =
    { Thc_sim.Adversary.at; action = Thc_sim.Adversary.Corrupt { pid; attack } }
  in
  let script events = { Thc_sim.Adversary.events; horizon = 10_000L } in
  let ok s ~crash_budget ~corrupt_budget =
    Thc_sim.Adversary.admissible s ~n:3 ~crash_budget ~corrupt_budget ()
  in
  (match ok (script [ corrupt ~at:1L 0 "replay" ]) ~crash_budget:0 ~corrupt_budget:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "within budget rejected: %s" e);
  (match ok (script [ corrupt ~at:1L 0 "replay" ]) ~crash_budget:0 ~corrupt_budget:0 with
  | Ok () -> Alcotest.fail "over-budget corruption accepted"
  | Error _ -> ());
  (match
     ok
       (script [ corrupt ~at:1L 0 "replay"; corrupt ~at:2L 0 "reuse" ])
       ~crash_budget:0 ~corrupt_budget:2
   with
  | Ok () -> Alcotest.fail "double corruption of one pid accepted"
  | Error _ -> ());
  match
    ok
      (script
         [
           { at = 1L; action = Thc_sim.Adversary.Crash 0 };
           corrupt ~at:2L 0 "replay";
         ])
      ~crash_budget:1 ~corrupt_budget:1
  with
  | Ok () -> Alcotest.fail "crash+corrupt overlap accepted"
  | Error _ -> ()

let () =
  Alcotest.run "thc_sim"
    [
      ( "delivery",
        [
          Alcotest.test_case "delay" `Quick test_delivery_delay;
          Alcotest.test_case "broadcast includes self" `Quick test_broadcast_includes_self;
          Alcotest.test_case "others excludes self" `Quick test_others_excludes_self;
        ] );
      ("timers", [ Alcotest.test_case "fire order" `Quick test_timer_order ]);
      ( "crash",
        [
          Alcotest.test_case "stops delivery" `Quick test_crash_stops_delivery;
          Alcotest.test_case "stops sending" `Quick test_crashed_process_sends_nothing;
        ] );
      ( "links",
        [
          Alcotest.test_case "block then release" `Quick test_block_holds_then_releases;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "heal_all" `Quick test_heal_all;
          Alcotest.test_case "isolate groups" `Quick test_isolate_groups;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same trace" `Quick test_determinism;
          Alcotest.test_case "seed matters" `Quick test_seed_changes_schedule;
        ] );
      ( "engine hot path",
        [
          Alcotest.test_case "tie-break: push order" `Quick
            test_tie_break_insertion_order;
          Alcotest.test_case "recycle equivalence" `Quick
            test_recycle_equivalence;
          Alcotest.test_case "tracing modes" `Quick test_tracing_modes;
        ] );
      ( "trace",
        [
          Alcotest.test_case "outputs" `Quick test_outputs;
          Alcotest.test_case "until bound" `Quick test_until_bound;
          Alcotest.test_case "event limit" `Quick test_event_limit;
          Alcotest.test_case "reception transcript" `Quick test_reception_transcript;
          Alcotest.test_case "stop reason" `Quick test_stop_reason;
        ] );
      ( "delays",
        [ qcheck prop_delay_uniform_bounds; qcheck prop_delay_exponential_positive ] );
      ( "metrics",
        [
          Alcotest.test_case "kind counts" `Quick test_metrics_kind_counts;
          Alcotest.test_case "delivery latency" `Quick test_metrics_delivery_latency;
          Alcotest.test_case "seq matching" `Quick test_metrics_seq_matching;
          Alcotest.test_case "delivery report: held at end" `Quick
            test_metrics_delivery_report_held;
          Alcotest.test_case "delivery report: dropped" `Quick
            test_metrics_delivery_report_dropped;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "random admissible" `Quick test_adversary_random_admissible;
          Alcotest.test_case "install heals" `Quick test_adversary_install_heals;
          Alcotest.test_case "partition scope" `Quick test_adversary_partition_blocks_cross_only;
          Alcotest.test_case "block at horizon still heals" `Quick
            test_adversary_block_at_horizon_still_heals;
          Alcotest.test_case "unsorted script heals" `Quick
            test_adversary_unsorted_script_heals;
          qcheck prop_adversary_sexp_roundtrip;
          Alcotest.test_case "corrupt round-trips" `Quick
            test_adversary_corrupt_roundtrip;
          Alcotest.test_case "admissible budgets" `Quick
            test_adversary_admissible_budgets;
        ] );
    ]
