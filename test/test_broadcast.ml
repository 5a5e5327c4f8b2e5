(* Tests for the broadcast layer: the SRB specification monitor, the ideal
   SRB functionality, Theorem 1 (TrInc from SRB), SRB from TrInc, plain
   reliable broadcast, Algorithm 1 (SRB from unidirectional rounds) with
   Byzantine senders, NEB and Dolev-Strong. *)

let qcheck = QCheck_alcotest.to_alcotest

let fast = Thc_sim.Delay.Uniform (10L, 400L)

let keyring ?(n = 5) ?(seed = 51L) () =
  Thc_crypto.Keyring.create (Thc_util.Rng.create seed) ~n

(* --- the SRB monitor on synthetic traces ---------------------------------------- *)

let scripted obs : unit Thc_sim.Engine.behavior =
  {
    init = (fun ctx -> List.iter ctx.output obs);
    on_message = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ _ -> ());
  }

let synthetic per_pid =
  let n = List.length per_pid in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~n ~net () in
  List.iteri
    (fun pid obs -> Thc_sim.Engine.set_behavior engine pid (scripted obs))
    per_pid;
  Thc_sim.Engine.run engine

let bcast seq value = Thc_sim.Obs.Srb_broadcast { seq; value }

let dlv seq value = Thc_sim.Obs.Srb_delivered { sender = 0; seq; value }

let has prop violations =
  List.exists (fun v -> v.Thc_broadcast.Srb_spec.property = prop) violations

let test_spec_clean () =
  let trace =
    synthetic [ [ bcast 1 "a"; dlv 1 "a" ]; [ dlv 1 "a" ] ]
  in
  Alcotest.(check int) "no violations" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0))

let test_spec_validity () =
  let trace = synthetic [ [ bcast 1 "a"; dlv 1 "a" ]; [] ] in
  Alcotest.(check bool) "missing delivery flagged" true
    (has `Validity (Thc_broadcast.Srb_spec.check trace ~sender:0))

let test_spec_totality_and_agreement () =
  let trace =
    synthetic [ [ bcast 1 "a"; bcast 2 "b"; dlv 1 "a"; dlv 2 "b" ]; [ dlv 1 "a" ] ]
  in
  Alcotest.(check bool) "partial delivery flagged" true
    (has `Totality (Thc_broadcast.Srb_spec.check trace ~sender:0));
  let trace2 = synthetic [ [ dlv 1 "a" ]; [ dlv 1 "b" ] ] in
  Alcotest.(check bool) "conflicting delivery flagged" true
    (has `Agreement (Thc_broadcast.Srb_spec.check trace2 ~sender:0))

let test_spec_sequencing () =
  let trace = synthetic [ [ dlv 2 "b" ] ] in
  Alcotest.(check bool) "gap flagged" true
    (has `Sequencing (Thc_broadcast.Srb_spec.check trace ~sender:0))

let test_spec_integrity () =
  let trace = synthetic [ [ bcast 1 "a"; dlv 1 "forged" ] ] in
  Alcotest.(check bool) "unbroadcast delivery flagged" true
    (has `Integrity (Thc_broadcast.Srb_spec.check trace ~sender:0))

(* --- ideal SRB ---------------------------------------------------------------------- *)

let test_ideal_srb_log_and_genuine () =
  let hub = Thc_broadcast.Ideal_srb.hub ~sender:3 in
  let w1 = Thc_broadcast.Ideal_srb.broadcast hub "x" in
  let w2 = Thc_broadcast.Ideal_srb.broadcast hub "y" in
  Alcotest.(check int) "seq 1" 1 w1.seq;
  Alcotest.(check int) "seq 2" 2 w2.seq;
  Alcotest.(check (list (pair int string))) "log" [ (1, "x"); (2, "y") ]
    (Thc_broadcast.Ideal_srb.log hub);
  Alcotest.(check bool) "genuine" true (Thc_broadcast.Ideal_srb.genuine hub w1);
  Alcotest.(check bool) "fabricated wire rejected" false
    (Thc_broadcast.Ideal_srb.genuine hub
       { Thc_broadcast.Ideal_srb.sender = 3; seq = 1; value = "forged" })

let test_ideal_srb_rx_order () =
  let hub = Thc_broadcast.Ideal_srb.hub ~sender:0 in
  let w1 = Thc_broadcast.Ideal_srb.broadcast hub "a" in
  let w2 = Thc_broadcast.Ideal_srb.broadcast hub "b" in
  let rx = Thc_broadcast.Ideal_srb.Rx.create hub in
  (* Out-of-order arrival: seq 2 buffered until seq 1 arrives. *)
  (match Thc_broadcast.Ideal_srb.Rx.receive rx w2 with
  | `Fresh [] -> ()
  | _ -> Alcotest.fail "expected fresh-but-held");
  (match Thc_broadcast.Ideal_srb.Rx.receive rx w1 with
  | `Fresh [ (1, "a"); (2, "b") ] -> ()
  | _ -> Alcotest.fail "expected both released in order");
  Alcotest.(check int) "delivered upto" 2
    (Thc_broadcast.Ideal_srb.Rx.delivered_upto rx);
  (match Thc_broadcast.Ideal_srb.Rx.receive rx w1 with
  | `Stale -> ()
  | _ -> Alcotest.fail "duplicate should be stale")

(* --- Theorem 1: TrInc from SRB -------------------------------------------------------- *)

let test_trinc_from_srb_direct () =
  let n = 3 in
  let hubs = Array.init n (fun sender -> Thc_broadcast.Ideal_srb.hub ~sender) in
  let states = Array.init n (fun self -> Thc_broadcast.Trinc_from_srb.create ~hubs ~self) in
  let a1, w1 = Thc_broadcast.Trinc_from_srb.attest states.(0) ~counter:4 ~message:"m" in
  (* Everyone who receives the wire can check the attestation. *)
  for pid = 1 to n - 1 do
    ignore (Thc_broadcast.Trinc_from_srb.on_wire states.(pid) w1);
    Alcotest.(check bool) "checks true after delivery" true
      (Thc_broadcast.Trinc_from_srb.check states.(pid) a1 ~id:0);
    Alcotest.(check int) "counter table updated" 4
      (Thc_broadcast.Trinc_from_srb.counter_of states.(pid) ~id:0)
  done;
  (* Non-monotone re-attest: stored nowhere. *)
  let a2, w2 = Thc_broadcast.Trinc_from_srb.attest states.(0) ~counter:2 ~message:"m2" in
  ignore (Thc_broadcast.Trinc_from_srb.on_wire states.(1) w2);
  Alcotest.(check bool) "stale counter rejected" false
    (Thc_broadcast.Trinc_from_srb.check states.(1) a2 ~id:0);
  (* Unknown attestation: false. *)
  let fake = { a1 with Thc_broadcast.Trinc_from_srb.message = "other" } in
  Alcotest.(check bool) "fabricated rejected" false
    (Thc_broadcast.Trinc_from_srb.check states.(1) fake ~id:0)

(* --- SRB from TrInc --------------------------------------------------------------------- *)

let run_srb_from_trinc ~seed ~configure =
  let n = 4 in
  let rng = Thc_util.Rng.create seed in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  for pid = 0 to n - 1 do
    let st =
      Thc_broadcast.Srb_from_trinc.create ~world
        ~trinket:(Some (Thc_hardware.Trinc.trinket world ~owner:pid))
        ~n ~self:pid
    in
    let plan = if pid = 0 then [ (100L, "a"); (150L, "b"); (200L, "c") ] else [] in
    Thc_sim.Engine.set_behavior engine pid
      (Thc_broadcast.Srb_from_trinc.behavior st ~broadcast_plan:plan)
  done;
  configure engine;
  Thc_sim.Engine.run ~until:5_000_000L engine

let test_srb_from_trinc_clean () =
  let trace = run_srb_from_trinc ~seed:31L ~configure:(fun _ -> ()) in
  Alcotest.(check int) "no violations" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0))

let test_srb_from_trinc_echo_covers_partition () =
  (* Sender cannot reach p3 directly, but echoes get there: totality. *)
  let trace =
    run_srb_from_trinc ~seed:32L ~configure:(fun engine ->
        Thc_sim.Engine.set_link engine ~src:0 ~dst:3 Thc_sim.Net.Drop)
  in
  Alcotest.(check int) "no violations despite dead direct link" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check int) "p3 got all three" 3
    (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:3))

let test_srb_from_trinc_gap () =
  (* Simpler gap check at the state-machine level. *)
  let n = 3 in
  let rng = Thc_util.Rng.create 34L in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let trinket = Thc_hardware.Trinc.trinket world ~owner:0 in
  let rx = Thc_broadcast.Srb_from_trinc.create ~world ~trinket:None ~n ~self:1 in
  ignore rx;
  (* Build attestations with a gap: counter 1, then counter 3. *)
  let a1 = Option.get (Thc_hardware.Trinc.attest trinket ~counter:1 ~message:"a") in
  let _skipped = Option.get (Thc_hardware.Trinc.attest trinket ~counter:2 ~message:"b") in
  let a3 = Option.get (Thc_hardware.Trinc.attest trinket ~counter:3 ~message:"c") in
  ignore (a1, a3);
  (* Receivers require prev = counter - 1 and contiguous release; feeding
     a1 then a3 (withholding a2) delivers only seq 1. *)
  let n' = 2 in
  let net = Thc_sim.Net.create ~n:n' ~default:(Thc_sim.Delay.Const 5L) in
  let engine = Thc_sim.Engine.create ~n:n' ~net () in
  let st = Thc_broadcast.Srb_from_trinc.create ~world ~trinket:None ~n ~self:1 in
  Thc_sim.Engine.set_behavior engine 1
    (Thc_broadcast.Srb_from_trinc.behavior st ~broadcast_plan:[]);
  let injector : Thc_broadcast.Srb_from_trinc.msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.send 1 (Thc_broadcast.Srb_from_trinc.wire_of_attestation a1);
          ctx.send 1 (Thc_broadcast.Srb_from_trinc.wire_of_attestation a3));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 injector;
  Thc_sim.Engine.mark_byzantine engine 0;
  let trace = Thc_sim.Engine.run ~until:100_000L engine in
  Alcotest.(check (list (pair int string))) "only the prefix delivers"
    [ (1, "a") ]
    (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:1)

let test_srb_from_trinc_concurrent_senders () =
  (* Every process broadcasts on its own trusted log concurrently; each
     sender's stream must satisfy SRB independently. *)
  let n = 4 in
  let seed = 35L in
  let rng = Thc_util.Rng.create seed in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  for pid = 0 to n - 1 do
    let st =
      Thc_broadcast.Srb_from_trinc.create ~world
        ~trinket:(Some (Thc_hardware.Trinc.trinket world ~owner:pid))
        ~n ~self:pid
    in
    let plan =
      List.init 3 (fun i ->
          ( Int64.of_int (100 + (i * 70) + (pid * 13)),
            Printf.sprintf "p%d-m%d" pid (i + 1) ))
    in
    Thc_sim.Engine.set_behavior engine pid
      (Thc_broadcast.Srb_from_trinc.behavior st ~broadcast_plan:plan)
  done;
  let trace = Thc_sim.Engine.run ~until:5_000_000L engine in
  for sender = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "sender %d spec clean" sender)
      0
      (List.length (Thc_broadcast.Srb_spec.check trace ~sender));
    for pid = 0 to n - 1 do
      Alcotest.(check int) "3 deliveries per stream" 3
        (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender ~pid))
    done
  done

(* --- reliable broadcast ------------------------------------------------------------------ *)

let run_rb ~seed ~n ~f ~configure =
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  for pid = 0 to n - 1 do
    let st = Thc_broadcast.Reliable_broadcast.create ~n ~f ~self:pid ~sender:0 in
    Thc_sim.Engine.set_behavior engine pid
      (Thc_broadcast.Reliable_broadcast.behavior st
         ~broadcast_plan:[ (50L, "value") ])
  done;
  configure engine;
  Thc_sim.Engine.run ~until:5_000_000L engine

let rb_deliveries trace pid =
  List.filter_map
    (fun obs ->
      match (obs : Thc_sim.Obs.t) with
      | Rb_delivered { value; _ } -> Some value
      | _ -> None)
    (Thc_sim.Trace.outputs_of trace pid)

let test_rb_delivers_everywhere () =
  let trace = run_rb ~seed:41L ~n:4 ~f:1 ~configure:(fun _ -> ()) in
  for pid = 0 to 3 do
    Alcotest.(check (list string)) "delivered" [ "value" ] (rb_deliveries trace pid)
  done

let test_rb_requires_n_gt_3f () =
  Alcotest.check_raises "n = 3f rejected"
    (Invalid_argument "Reliable_broadcast.create: needs n > 3f") (fun () ->
      ignore (Thc_broadcast.Reliable_broadcast.create ~n:3 ~f:1 ~self:0 ~sender:0))

let test_rb_tolerates_silent_fault () =
  let trace =
    run_rb ~seed:42L ~n:4 ~f:1 ~configure:(fun engine ->
        Thc_sim.Engine.mark_byzantine engine 3;
        Thc_sim.Engine.schedule_crash engine ~pid:3 ~at:0L)
  in
  for pid = 0 to 2 do
    Alcotest.(check (list string)) "correct deliver" [ "value" ]
      (rb_deliveries trace pid)
  done

(* --- Algorithm 1: SRB from unidirectional rounds ------------------------------------------- *)

let run_srb_from_uni ~seed ~values ~configure_byz =
  let n = 5 and faults = 2 in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let srbs =
    Array.init n (fun pid ->
        Thc_broadcast.Srb_from_uni.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~faults)
  in
  List.iter (Thc_broadcast.Srb_from_uni.broadcast srbs.(0)) values;
  let byz = configure_byz ~keyring ~registers ~engine in
  for pid = 0 to n - 1 do
    if not (List.mem pid byz) then
      Thc_sim.Engine.set_behavior engine pid
        (Thc_rounds.Swmr_rounds.behavior ~registers
           ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
           (Thc_broadcast.Srb_from_uni.app srbs.(pid)))
  done;
  let trace = Thc_sim.Engine.run ~until:2_000_000L ~max_events:10_000_000 engine in
  (trace, srbs, Thc_sim.Engine.stop_reason engine)

let stop_reason =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with `Quiescent -> "quiescent" | `Horizon -> "horizon"))
    ( = )

let no_byz ~keyring:_ ~registers:_ ~engine:_ = []

let test_srb_uni_happy_path () =
  let trace, srbs, stop =
    run_srb_from_uni ~seed:61L ~values:[ "a"; "b"; "c" ] ~configure_byz:no_byz
  in
  Alcotest.check stop_reason "idle readers park: the run goes quiet" `Quiescent stop;
  Alcotest.(check int) "spec clean" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check (list (pair int string))) "delivered in order at p3"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (Thc_broadcast.Srb_from_uni.delivered srbs.(3));
  Alcotest.(check int) "rounds stayed unidirectional" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace))

let test_srb_uni_no_sender () =
  let trace, _, _ =
    run_srb_from_uni ~seed:62L ~values:[] ~configure_byz:no_byz
  in
  Alcotest.(check int) "nothing delivered, nothing violated" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check int) "no deliveries" 0
    (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:1))

let equivocating_sender ~keyring ~registers ~engine =
  Thc_sim.Engine.mark_byzantine engine 0;
  let ident = Thc_crypto.Keyring.secret keyring ~pid:0 in
  let p1, p2 =
    Thc_broadcast.Srb_from_uni.equivocation_payloads ~ident ~k:1 "white" "black"
  in
  let byz : unit Thc_sim.Engine.behavior =
    {
      init =
        (fun _ ->
          (* Publish both conflicting payloads into the copy round (2). *)
          Thc_sharedmem.Swmr.append registers.(0) ~ident (2, p1);
          Thc_sharedmem.Swmr.append registers.(0) ~ident (2, p2));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 byz;
  [ 0 ]

let test_srb_uni_equivocation_safe () =
  let trace, srbs, _ =
    run_srb_from_uni ~seed:63L ~values:[] ~configure_byz:equivocating_sender
  in
  (* Safety: no two correct processes deliver different values; in fact with
     a detected conflict nobody should assemble an L2 proof at all. *)
  Alcotest.(check int) "no SRB violations" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  let all_deliveries =
    List.concat_map
      (fun pid -> Thc_broadcast.Srb_from_uni.delivered srbs.(pid))
      [ 1; 2; 3; 4 ]
  in
  let distinct_values =
    List.sort_uniq compare (List.map snd all_deliveries)
  in
  Alcotest.(check bool) "at most one value delivered" true
    (List.length distinct_values <= 1)

let test_srb_uni_sender_copy_kept () =
  (* Regression: a receiver that learns the value from the sender's own
     round payload [Val v; Copy c] must keep the sender's copy, not drop it
     for not matching a value it had yet to adopt.  At n = 3, t = 1 the
     copy round needs t+1 = 2 copies: p1's own and the sender's. *)
  let n = 3 in
  let keyring = keyring ~n ~seed:67L () in
  let srb =
    Thc_broadcast.Srb_from_uni.create ~keyring
      ~ident:(Thc_crypto.Keyring.secret keyring ~pid:1)
      ~sender:0 ~faults:1
  in
  let app = Thc_broadcast.Srb_from_uni.app srb in
  let round = ref 1 in
  let h : Thc_rounds.Round_app.handle =
    {
      self = 1;
      n;
      round = (fun () -> !round);
      output = (fun _ -> ());
      now = (fun () -> 0L);
      rng = Thc_util.Rng.create 1L;
    }
  in
  let verdict = function
    | Thc_rounds.Round_app.Advance (Some _) -> "advance"
    | Advance None -> "advance silently"
    | Hold -> "hold"
    | Stop -> "stop"
  in
  Alcotest.(check string) "no value yet" "hold"
    (verdict (app.on_round_check h ~round:1));
  let sender_payload, _ =
    Thc_broadcast.Srb_from_uni.equivocation_payloads
      ~ident:(Thc_crypto.Keyring.secret keyring ~pid:0)
      ~k:1 "v" "w"
  in
  app.on_receive h ~round:2 ~from:0 sender_payload;
  Alcotest.(check string) "value adopted: send own copy" "advance"
    (verdict (app.on_round_check h ~round:1));
  round := 2;
  Alcotest.(check string) "own copy plus the sender's: send L1" "advance"
    (verdict (app.on_round_check h ~round:2))

let test_srb_uni_harness_quiescent () =
  (* The corpus's srb-uni-crashes script with the benchmark's 3 values:
     readers park once everyone has delivered, so the run ends at the last
     scripted event, not at the 600 ms horizon.  Polling idle registers
     cost ~37k events here. *)
  let script =
    {
      Thc_sim.Adversary.horizon = 100_000L;
      events =
        [
          { at = 20_000L; action = Crash 1 };
          { at = 45_000L; action = Crash 4 };
        ];
    }
  in
  let report, stop =
    Thc_broadcast.Srb_harness.run_uni_stop ~seed:11L ~script ~values:3 ()
  in
  Alcotest.(check int) "spec clean" 0 (List.length report.violations);
  Alcotest.(check int) "3 values at 3 correct processes" 9 report.delivered;
  Alcotest.check stop_reason "ends quiescent" `Quiescent stop.reason;
  if stop.events >= 1_000 then
    Alcotest.failf "%d engine events; an idle-free run takes under 1000" stop.events

let prop_srb_uni_schedules =
  QCheck.Test.make ~name:"Algorithm 1 satisfies SRB across schedules" ~count:10
    QCheck.int64
    (fun seed ->
      let trace, _, _ =
        run_srb_from_uni ~seed ~values:[ "x"; "y" ] ~configure_byz:no_byz
      in
      Thc_broadcast.Srb_spec.check trace ~sender:0 = []
      && List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:2) = 2)

(* Algorithm 1 is driver-generic: the same app over another shared-memory
   board.  [driver ~keyring ~pid app] builds process [pid]'s behavior. *)
let run_srb_uni_over ~seed ~driver =
  let n = 5 and faults = 2 in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let srbs =
    Array.init n (fun pid ->
        Thc_broadcast.Srb_from_uni.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~faults)
  in
  List.iter (Thc_broadcast.Srb_from_uni.broadcast srbs.(0)) [ "x"; "y" ];
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (driver ~keyring ~pid (Thc_broadcast.Srb_from_uni.app srbs.(pid)))
  done;
  let trace = Thc_sim.Engine.run ~until:2_000_000L ~max_events:10_000_000 engine in
  (trace, Thc_sim.Engine.stop_reason engine)

let test_srb_uni_over_sticky_driver () =
  let board = Thc_rounds.Sticky_rounds.create_board ~n:5 in
  let trace, stop =
    run_srb_uni_over ~seed:64L ~driver:(fun ~keyring ~pid app ->
        Thc_rounds.Sticky_rounds.behavior ~board
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          app)
  in
  Alcotest.(check int) "spec clean over sticky rounds" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check int) "both delivered at p4" 2
    (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:4));
  Alcotest.check stop_reason "sticky readers park" `Quiescent stop

let test_srb_uni_over_peats_driver () =
  let space =
    Thc_sharedmem.Peats.create ~policy:Thc_sharedmem.Peats.owned_field_policy
  in
  let trace, stop =
    run_srb_uni_over ~seed:66L ~driver:(fun ~keyring ~pid app ->
        Thc_rounds.Peats_rounds.behavior ~space ~n:5
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          app)
  in
  Alcotest.(check int) "spec clean over PEATS rounds" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check int) "both delivered at p3" 2
    (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:3));
  Alcotest.check stop_reason "PEATS readers park" `Quiescent stop

let test_srb_uni_over_lockstep_driver () =
  (* Bidirectional rounds are in particular unidirectional: Algorithm 1 must
     run unchanged over the lock-step driver. *)
  let n = 5 and faults = 2 in
  let seed = 65L in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L)) in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let srbs =
    Array.init n (fun pid ->
        Thc_broadcast.Srb_from_uni.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~faults)
  in
  List.iter (Thc_broadcast.Srb_from_uni.broadcast srbs.(0)) [ "x"; "y" ];
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Sync_rounds.behavior ~period:1_000L
         (Thc_broadcast.Srb_from_uni.app srbs.(pid)))
  done;
  let trace = Thc_sim.Engine.run ~until:100_000L ~max_events:10_000_000 engine in
  Alcotest.(check int) "spec clean over lock-step rounds" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check int) "both delivered at p2" 2
    (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:2))

(* --- NEB -------------------------------------------------------------------------------- *)

let run_neb ~seed ~sender_input ~byz_equivocator =
  let n = 4 in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let states =
    Array.init n (fun pid ->
        Thc_broadcast.Neb.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0
          ~input:(if pid = 0 then sender_input else None))
  in
  let first = if byz_equivocator then 1 else 0 in
  for pid = first to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Swmr_rounds.behavior ~registers
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (Thc_broadcast.Neb.app states.(pid)))
  done;
  if byz_equivocator then begin
    Thc_sim.Engine.mark_byzantine engine 0;
    let ident = Thc_crypto.Keyring.secret keyring ~pid:0 in
    let p1, p2 = Thc_broadcast.Neb.equivocation_payloads ~ident "yes" "no" in
    let byz : unit Thc_sim.Engine.behavior =
      {
        init =
          (fun _ ->
            Thc_sharedmem.Swmr.append registers.(0) ~ident (1, p1);
            Thc_sharedmem.Swmr.append registers.(0) ~ident (1, p2));
        on_message = (fun _ ~src:_ _ -> ());
        on_timer = (fun _ _ -> ());
      }
    in
    Thc_sim.Engine.set_behavior engine 0 byz
  end;
  let trace = Thc_sim.Engine.run ~until:10_000_000L engine in
  (trace, states)

let test_neb_correct_sender () =
  let _, states = run_neb ~seed:71L ~sender_input:(Some "go") ~byz_equivocator:false in
  for pid = 0 to 3 do
    match Thc_broadcast.Neb.committed states.(pid) with
    | Some (Some "go") -> ()
    | _ -> Alcotest.failf "p%d did not commit the sender's value" pid
  done

let test_neb_equivocating_sender () =
  let _, states = run_neb ~seed:72L ~sender_input:None ~byz_equivocator:true in
  (* Correct processes commit the same value or ⊥; never two different
     non-⊥ values. *)
  let decisions =
    List.filter_map
      (fun pid ->
        match Thc_broadcast.Neb.committed states.(pid) with
        | Some d -> Some d
        | None -> None)
      [ 1; 2; 3 ]
  in
  let non_bot = List.sort_uniq compare (List.filter_map Fun.id decisions) in
  Alcotest.(check bool) "agreement up to bot" true (List.length non_bot <= 1)

let test_neb_late_write_wakes_parked_readers () =
  (* The Byzantine sender stays silent, then appends its signed value
     straight into its register at 50 ms, long after every honest reader
     has parked in round 1.  The append itself must wake them. *)
  let n = 4 and seed = 73L in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let states =
    Array.init n (fun pid ->
        Thc_broadcast.Neb.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~input:None)
  in
  for pid = 1 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Swmr_rounds.behavior ~registers
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (Thc_broadcast.Neb.app states.(pid)))
  done;
  Thc_sim.Engine.mark_byzantine engine 0;
  let ident = Thc_crypto.Keyring.secret keyring ~pid:0 in
  let late, _ = Thc_broadcast.Neb.equivocation_payloads ~ident "late" "unused" in
  Thc_sim.Engine.at engine 50_000L (fun () ->
      Thc_sharedmem.Swmr.append registers.(0) ~ident (1, late));
  let trace = Thc_sim.Engine.run ~until:10_000_000L engine in
  Alcotest.(check int) "parked readers arm no timer before the write" 0
    (Thc_sim.Trace.count trace (function
      | Thc_sim.Trace.Timer_fired { time; _ } -> time > 10_000L && time < 50_000L
      | _ -> false));
  for pid = 1 to n - 1 do
    match Thc_broadcast.Neb.committed states.(pid) with
    | Some (Some "late") -> ()
    | _ -> Alcotest.failf "p%d missed the late write" pid
  done;
  Alcotest.check stop_reason "ends quiescent" `Quiescent
    (Thc_sim.Engine.stop_reason engine)

(* --- Dolev-Strong ------------------------------------------------------------------------- *)

let run_ds ~seed ~n ~f ~sender_behavior =
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L)) in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let states =
    Array.init n (fun pid ->
        Thc_broadcast.Dolev_strong.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~f
          ~input:(if pid = 0 then Some "v" else None))
  in
  for pid = 0 to n - 1 do
    match sender_behavior with
    | Some b when pid = 0 ->
      Thc_sim.Engine.mark_byzantine engine 0;
      Thc_sim.Engine.set_behavior engine 0 b
    | _ ->
      Thc_sim.Engine.set_behavior engine pid
        (Thc_rounds.Sync_rounds.behavior ~period:1_000L
           (Thc_broadcast.Dolev_strong.app states.(pid)))
  done;
  (Thc_sim.Engine.run ~until:60_000L engine, states)

let test_ds_correct_sender () =
  let trace, _ = run_ds ~seed:81L ~n:4 ~f:1 ~sender_behavior:None in
  List.iter
    (fun pid ->
      match Thc_sim.Trace.decision_of trace pid with
      | Some (Some "v") -> ()
      | _ -> Alcotest.failf "p%d did not commit v" pid)
    [ 0; 1; 2; 3 ]

let test_ds_silent_sender () =
  let silent : Thc_rounds.Sync_rounds.msg Thc_sim.Engine.behavior =
    Thc_sim.Engine.no_op
  in
  let trace, _ = run_ds ~seed:82L ~n:4 ~f:1 ~sender_behavior:(Some silent) in
  List.iter
    (fun pid ->
      match Thc_sim.Trace.decision_of trace pid with
      | Some None -> ()
      | _ -> Alcotest.failf "p%d should commit ⊥ for a silent sender" pid)
    [ 1; 2; 3 ]

let test_ds_equivocating_sender () =
  (* The Byzantine sender signs two values and sends each chain to one half
     of the cluster in round 1.  Signature-chain relaying over the remaining
     f rounds must still produce agreement: everyone extracts both values
     and commits ⊥, or everyone commits the same single value. *)
  let n = 4 and f = 1 in
  let keyring = keyring ~n ~seed:83L () in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L)) in
  let engine = Thc_sim.Engine.create ~seed:83L ~n ~net () in
  let states =
    Array.init n (fun pid ->
        Thc_broadcast.Dolev_strong.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~f ~input:None)
  in
  for pid = 1 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Sync_rounds.behavior ~period:1_000L
         (Thc_broadcast.Dolev_strong.app states.(pid)))
  done;
  Thc_sim.Engine.mark_byzantine engine 0;
  let ident0 = Thc_crypto.Keyring.secret keyring ~pid:0 in
  (* Build the two conflicting initial chains through the honest code path:
     two Dolev_strong instances sharing the sender identity. *)
  let mk value =
    let st =
      Thc_broadcast.Dolev_strong.create ~keyring ~ident:ident0 ~sender:0 ~f
        ~input:(Some value)
    in
    match Thc_broadcast.Dolev_strong.initial_chain st with
    | Some c -> Thc_util.Codec.encode [ c ]
    | None -> assert false
  in
  let payload_a = mk "A" and payload_b = mk "B" in
  let byz : Thc_rounds.Sync_rounds.msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.send 1 (Thc_rounds.Sync_rounds.inject ~round:1 ~payload:payload_a);
          ctx.send 2 (Thc_rounds.Sync_rounds.inject ~round:1 ~payload:payload_a);
          ctx.send 3 (Thc_rounds.Sync_rounds.inject ~round:1 ~payload:payload_b));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 byz;
  let trace = Thc_sim.Engine.run ~until:60_000L engine in
  let decisions =
    List.filter_map (fun pid -> Thc_sim.Trace.decision_of trace pid) [ 1; 2; 3 ]
  in
  Alcotest.(check int) "everyone decided" 3 (List.length decisions);
  (match List.sort_uniq compare decisions with
  | [ _ ] -> ()
  | ds -> Alcotest.failf "agreement broken: %d distinct decisions" (List.length ds))

let () =
  Alcotest.run "thc_broadcast"
    [
      ( "srb-spec",
        [
          Alcotest.test_case "clean" `Quick test_spec_clean;
          Alcotest.test_case "validity" `Quick test_spec_validity;
          Alcotest.test_case "totality/agreement" `Quick test_spec_totality_and_agreement;
          Alcotest.test_case "sequencing" `Quick test_spec_sequencing;
          Alcotest.test_case "integrity" `Quick test_spec_integrity;
        ] );
      ( "ideal-srb",
        [
          Alcotest.test_case "log/genuine" `Quick test_ideal_srb_log_and_genuine;
          Alcotest.test_case "rx ordering" `Quick test_ideal_srb_rx_order;
        ] );
      ( "trinc-from-srb",
        [ Alcotest.test_case "theorem 1 direct" `Quick test_trinc_from_srb_direct ] );
      ( "srb-from-trinc",
        [
          Alcotest.test_case "clean" `Quick test_srb_from_trinc_clean;
          Alcotest.test_case "echo covers dead link" `Quick test_srb_from_trinc_echo_covers_partition;
          Alcotest.test_case "gap never delivers" `Quick test_srb_from_trinc_gap;
          Alcotest.test_case "concurrent senders" `Quick test_srb_from_trinc_concurrent_senders;
        ] );
      ( "reliable-broadcast",
        [
          Alcotest.test_case "delivers" `Quick test_rb_delivers_everywhere;
          Alcotest.test_case "bound enforced" `Quick test_rb_requires_n_gt_3f;
          Alcotest.test_case "silent fault" `Quick test_rb_tolerates_silent_fault;
        ] );
      ( "srb-from-uni",
        [
          Alcotest.test_case "happy path" `Quick test_srb_uni_happy_path;
          Alcotest.test_case "no sender" `Quick test_srb_uni_no_sender;
          Alcotest.test_case "equivocation safe" `Quick test_srb_uni_equivocation_safe;
          Alcotest.test_case "over sticky driver" `Quick test_srb_uni_over_sticky_driver;
          Alcotest.test_case "over lock-step driver" `Quick test_srb_uni_over_lockstep_driver;
          qcheck prop_srb_uni_schedules;
          Alcotest.test_case "over PEATS driver" `Quick test_srb_uni_over_peats_driver;
          Alcotest.test_case "sender copy kept" `Quick test_srb_uni_sender_copy_kept;
          Alcotest.test_case "harness run quiescent" `Quick test_srb_uni_harness_quiescent;
        ] );
      ( "neb",
        [
          Alcotest.test_case "correct sender" `Quick test_neb_correct_sender;
          Alcotest.test_case "equivocating sender" `Quick test_neb_equivocating_sender;
          Alcotest.test_case "late write wakes readers" `Quick
            test_neb_late_write_wakes_parked_readers;
        ] );
      ( "dolev-strong",
        [
          Alcotest.test_case "correct sender" `Quick test_ds_correct_sender;
          Alcotest.test_case "silent sender" `Quick test_ds_silent_sender;
          Alcotest.test_case "equivocating sender" `Quick test_ds_equivocating_sender;
        ] );
    ]
