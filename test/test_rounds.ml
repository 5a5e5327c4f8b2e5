(* Tests for the round-driver layer: the directionality monitors themselves,
   and each driver's guarantee (and non-guarantee) under adversarial
   scheduling, partitions and Byzantine participants. *)

let qcheck = QCheck_alcotest.to_alcotest

let fast = Thc_sim.Delay.Uniform (10L, 400L)

let keyring ?(n = 5) ?(seed = 17L) () =
  Thc_crypto.Keyring.create (Thc_util.Rng.create seed) ~n

let chatter pid ~rounds : Thc_rounds.Round_app.app =
  {
    first_payload = (fun _ -> Some (Printf.sprintf "r1-p%d" pid));
    on_receive = (fun _ ~round:_ ~from:_ _ -> ());
    on_round_check =
      (fun h ~round ->
        if round >= rounds then Thc_rounds.Round_app.Stop
        else
          Thc_rounds.Round_app.Advance
            (Some (Printf.sprintf "r%d-p%d" (round + 1) h.self)));
  }

(* --- the monitors on synthetic traces -------------------------------------- *)

(* A behavior that emits a scripted list of observations and nothing else. *)
let scripted obs : unit Thc_sim.Engine.behavior =
  {
    init = (fun ctx -> List.iter ctx.output obs);
    on_message = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ _ -> ());
  }

let synthetic_trace per_pid =
  let n = List.length per_pid in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~n ~net () in
  List.iteri
    (fun pid obs -> Thc_sim.Engine.set_behavior engine pid (scripted obs))
    per_pid;
  Thc_sim.Engine.run engine

let sent r = Thc_sim.Obs.Round_sent { round = r; payload = "m" }

let recv r from = Thc_sim.Obs.Round_received { round = r; from; payload = "m" }

let ended r = Thc_sim.Obs.Round_ended { round = r }

let test_monitor_detects_mutual_silence () =
  let trace =
    synthetic_trace [ [ sent 1; ended 1 ]; [ sent 1; ended 1 ] ]
  in
  Alcotest.(check int) "one uni violation" 1
    (List.length (Thc_rounds.Directionality.check_unidirectional trace))

let test_monitor_one_direction_suffices () =
  let trace =
    synthetic_trace [ [ sent 1; recv 1 1; ended 1 ]; [ sent 1; ended 1 ] ]
  in
  Alcotest.(check int) "no uni violation" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace));
  Alcotest.(check int) "but a bi violation" 1
    (List.length (Thc_rounds.Directionality.check_bidirectional trace))

let test_monitor_both_directions_bi () =
  let trace =
    synthetic_trace
      [ [ sent 1; recv 1 1; ended 1 ]; [ sent 1; recv 1 0; ended 1 ] ]
  in
  Alcotest.(check int) "bi satisfied" 0
    (List.length (Thc_rounds.Directionality.check_bidirectional trace))

let test_monitor_needs_both_senders () =
  (* p1 sent nothing: the pair is unconstrained. *)
  let trace = synthetic_trace [ [ sent 1; ended 1 ]; [ ended 1 ] ] in
  Alcotest.(check int) "non-sender pair unconstrained" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace))

let test_monitor_needs_round_end () =
  (* p1 never finished round 1: no verdict yet. *)
  let trace = synthetic_trace [ [ sent 1; ended 1 ]; [ sent 1 ] ] in
  Alcotest.(check int) "unfinished round unconstrained" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace))

let test_monitor_ignores_byzantine () =
  let n = 2 in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~n ~net () in
  Thc_sim.Engine.set_behavior engine 0 (scripted [ sent 1; ended 1 ]);
  Thc_sim.Engine.set_behavior engine 1 (scripted [ sent 1; ended 1 ]);
  Thc_sim.Engine.mark_byzantine engine 1;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "byzantine pairs unconstrained" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace))

let test_rounds_completed () =
  let trace = synthetic_trace [ [ ended 1; ended 2; ended 3 ] ] in
  Alcotest.(check int) "counts ends" 3
    (Thc_rounds.Directionality.rounds_completed trace ~pid:0)

(* --- shared-memory drivers --------------------------------------------------- *)

let run_swmr ?(n = 5) ~seed ~rounds () =
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Swmr_rounds.behavior ~registers
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (chatter pid ~rounds))
  done;
  Thc_sim.Engine.run ~until:10_000_000L engine

let test_swmr_completes_and_uni () =
  let trace = run_swmr ~seed:5L ~rounds:4 () in
  for pid = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "p%d completed" pid)
      4
      (Thc_rounds.Directionality.rounds_completed trace ~pid)
  done;
  Alcotest.(check int) "uni holds" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace))

let prop_swmr_uni_all_seeds =
  QCheck.Test.make ~name:"swmr rounds unidirectional for all schedules"
    ~count:25 QCheck.int64
    (fun seed ->
      let trace = run_swmr ~seed ~rounds:3 () in
      Thc_rounds.Directionality.check_unidirectional trace = [])

let test_swmr_byzantine_equivocation_visible () =
  (* A Byzantine owner appends two conflicting round-1 entries; honest
     readers observe both — shared memory exposes equivocation rather than
     hiding it. *)
  let n = 3 in
  let keyring = keyring ~n () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed:9L ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let seen = ref [] in
  let observer pid : Thc_rounds.Round_app.app =
    {
      first_payload = (fun _ -> Some (Printf.sprintf "p%d" pid));
      on_receive =
        (fun _ ~round ~from payload ->
          if from = 2 then seen := (round, payload) :: !seen);
      on_round_check = (fun _ ~round:_ -> Thc_rounds.Round_app.Stop);
    }
  in
  for pid = 0 to 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Swmr_rounds.behavior ~registers
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (observer pid))
  done;
  Thc_sim.Engine.mark_byzantine engine 2;
  let byz : unit Thc_sim.Engine.behavior =
    {
      init =
        (fun _ ->
          let ident = Thc_crypto.Keyring.secret keyring ~pid:2 in
          Thc_sharedmem.Swmr.append registers.(2) ~ident (1, "white");
          Thc_sharedmem.Swmr.append registers.(2) ~ident (1, "black"));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 2 byz;
  ignore (Thc_sim.Engine.run ~until:1_000_000L engine);
  let payloads = List.sort_uniq compare (List.map snd !seen) in
  Alcotest.(check (list string)) "both conflicting values visible"
    [ "black"; "white" ] payloads

let test_sticky_driver () =
  let n = 4 in
  let keyring = keyring ~n () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed:6L ~n ~net () in
  let board = Thc_rounds.Sticky_rounds.create_board ~n in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Sticky_rounds.behavior ~board
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (chatter pid ~rounds:3))
  done;
  let trace = Thc_sim.Engine.run ~until:10_000_000L engine in
  Alcotest.(check int) "uni holds" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace));
  Alcotest.(check int) "rounds complete" 3
    (Thc_rounds.Directionality.rounds_completed trace ~pid:0)

let test_sticky_cell_acl () =
  let board = Thc_rounds.Sticky_rounds.create_board ~n:2 in
  let keyring = keyring ~n:2 () in
  let cell = Thc_rounds.Sticky_rounds.cell board ~owner:0 ~round:1 in
  match
    Thc_sharedmem.Sticky.set cell
      ~ident:(Thc_crypto.Keyring.secret keyring ~pid:1)
      "spoof"
  with
  | _ -> Alcotest.fail "foreign write accepted"
  | exception Thc_sharedmem.Acl.Violation _ -> ()

let test_peats_driver () =
  let n = 4 in
  let keyring = keyring ~n () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed:8L ~n ~net () in
  let space =
    Thc_sharedmem.Peats.create ~policy:Thc_sharedmem.Peats.owned_field_policy
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Peats_rounds.behavior ~space ~n
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (chatter pid ~rounds:3))
  done;
  let trace = Thc_sim.Engine.run ~until:10_000_000L engine in
  Alcotest.(check int) "uni holds" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace))

(* --- message-passing drivers ---------------------------------------------------- *)

let test_async_rounds_complete () =
  let n = 5 in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed:10L ~n ~net () in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Async_rounds.behavior ~f:2 (chatter pid ~rounds:3))
  done;
  let trace = Thc_sim.Engine.run ~until:10_000_000L engine in
  for pid = 0 to n - 1 do
    Alcotest.(check int) "3 rounds" 3
      (Thc_rounds.Directionality.rounds_completed trace ~pid)
  done

let test_async_rounds_partition_violates_uni () =
  let n = 4 in
  let net = Thc_sim.Net.create ~n ~default:fast in
  Thc_sim.Net.isolate_groups net ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] Thc_sim.Net.Block;
  let engine = Thc_sim.Engine.create ~seed:11L ~n ~net () in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Async_rounds.behavior ~f:2 (chatter pid ~rounds:1))
  done;
  Thc_sim.Engine.at engine 500_000L (fun () ->
      Thc_sim.Engine.heal_all engine fast);
  let trace = Thc_sim.Engine.run ~until:1_000_000L engine in
  Alcotest.(check bool) "zero-directionality exposed" true
    (Thc_rounds.Directionality.check_unidirectional trace <> [])

let test_sync_rounds_bidirectional () =
  let n = 4 in
  (* Delays strictly below the period: lock-step holds. *)
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L)) in
  let engine = Thc_sim.Engine.create ~seed:12L ~n ~net () in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Sync_rounds.behavior ~period:1_000L (chatter pid ~rounds:4))
  done;
  let trace = Thc_sim.Engine.run ~until:100_000L engine in
  Alcotest.(check int) "bidirectional" 0
    (List.length (Thc_rounds.Directionality.check_bidirectional trace))

let test_sync_rounds_break_without_bound () =
  (* One link slower than the round period: the synchrony assumption is
     violated and bidirectionality falls. *)
  let n = 3 in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Const 100L) in
  Thc_sim.Net.set net ~src:0 ~dst:1 (Thc_sim.Net.Deliver (Thc_sim.Delay.Const 5_000L));
  let engine = Thc_sim.Engine.create ~seed:13L ~n ~net () in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Sync_rounds.behavior ~period:1_000L (chatter pid ~rounds:2))
  done;
  let trace = Thc_sim.Engine.run ~until:100_000L engine in
  Alcotest.(check bool) "bi violated" true
    (Thc_rounds.Directionality.check_bidirectional trace <> [])

let test_delta_rounds_uni_with_offsets () =
  let n = 4 in
  let delta = 1_000L in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, delta)) in
  let engine = Thc_sim.Engine.create ~seed:14L ~n ~net () in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Delta_rounds.behavior ~wait:delta
         ~start_offset:(Int64.of_int (pid * 700))
         (chatter pid ~rounds:3))
  done;
  let trace = Thc_sim.Engine.run ~until:1_000_000L engine in
  Alcotest.(check int) "uni holds at wait = delta" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace));
  (* With misaligned starts, bidirectionality genuinely fails. *)
  Alcotest.(check bool) "bi does not hold" true
    (Thc_rounds.Directionality.check_bidirectional trace <> [])

let test_rb1_partitioned_pair () =
  let n = 4 in
  let keyring = keyring ~n () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed:15L ~n ~net () in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Rb_rounds_f1.behavior ~keyring
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (chatter pid ~rounds:2))
  done;
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Block;
  Thc_sim.Engine.set_link engine ~src:1 ~dst:0 Thc_sim.Net.Block;
  let trace = Thc_sim.Engine.run ~until:10_000_000L engine in
  Alcotest.(check int) "uni holds through relaying" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace));
  for pid = 0 to n - 1 do
    Alcotest.(check int) "rounds complete" 2
      (Thc_rounds.Directionality.rounds_completed trace ~pid)
  done

let test_rb1_tolerates_silent_fault () =
  let n = 4 in
  let keyring = keyring ~n () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed:16L ~n ~net () in
  for pid = 0 to n - 2 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Rb_rounds_f1.behavior ~keyring
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (chatter pid ~rounds:2))
  done;
  Thc_sim.Engine.mark_byzantine engine (n - 1);
  Thc_sim.Engine.set_behavior engine (n - 1) Thc_sim.Engine.no_op;
  let trace = Thc_sim.Engine.run ~until:10_000_000L engine in
  Alcotest.(check int) "uni among correct" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace));
  for pid = 0 to n - 2 do
    Alcotest.(check int) "correct complete despite silent fault" 2
      (Thc_rounds.Directionality.rounds_completed trace ~pid)
  done

let prop_rb1_uni_under_random_partition =
  QCheck.Test.make
    ~name:"rb1 rounds stay unidirectional under a random pair partition"
    ~count:15 QCheck.int64
    (fun seed ->
      let n = 4 in
      let keyring = keyring ~n ~seed:17L () in
      let net = Thc_sim.Net.create ~n ~default:fast in
      let engine = Thc_sim.Engine.create ~seed ~n ~net () in
      for pid = 0 to n - 1 do
        Thc_sim.Engine.set_behavior engine pid
          (Thc_rounds.Rb_rounds_f1.behavior ~keyring
             ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
             (chatter pid ~rounds:2))
      done;
      (* Random fully-partitioned pair. *)
      let rng = Thc_util.Rng.create seed in
      let a = Thc_util.Rng.int rng n in
      let b = (a + 1 + Thc_util.Rng.int rng (n - 1)) mod n in
      Thc_sim.Engine.set_link engine ~src:a ~dst:b Thc_sim.Net.Block;
      Thc_sim.Engine.set_link engine ~src:b ~dst:a Thc_sim.Net.Block;
      let trace = Thc_sim.Engine.run ~until:5_000_000L engine in
      Thc_rounds.Directionality.check_unidirectional trace = []
      && List.for_all
           (fun pid -> Thc_rounds.Directionality.rounds_completed trace ~pid >= 2)
           (List.init n (fun i -> i)))

(* --- Hold semantics ------------------------------------------------------------ *)

let test_hold_keeps_round_open () =
  (* p0 holds its round until it has heard from everyone (not just until the
     mechanical end), exercising the paper's "until round finished AND
     condition" pattern. *)
  let n = 3 in
  let keyring = keyring ~n () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed:18L ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let heard = ref [] in
  let holding_app : Thc_rounds.Round_app.app =
    {
      first_payload = (fun _ -> Some "p0");
      on_receive = (fun _ ~round:_ ~from _ -> heard := from :: !heard);
      on_round_check =
        (fun _ ~round:_ ->
          if List.length (List.sort_uniq compare !heard) >= 3 then
            Thc_rounds.Round_app.Stop
          else Thc_rounds.Round_app.Hold);
    }
  in
  Thc_sim.Engine.set_behavior engine 0
    (Thc_rounds.Swmr_rounds.behavior ~registers
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:0)
       holding_app);
  (* p1 writes immediately; p2 only after a long pause — p0 parks across
     the pause and the late append must wake it. *)
  Thc_sim.Engine.set_behavior engine 1
    (Thc_rounds.Swmr_rounds.behavior ~registers
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:1)
       (chatter 1 ~rounds:1));
  let late : unit Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.set_timer ~delay:50_000L ~tag:0);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer =
        (fun _ _ ->
          Thc_sharedmem.Swmr.append registers.(2)
            ~ident:(Thc_crypto.Keyring.secret keyring ~pid:2)
            (1, "late"));
      }
  in
  Thc_sim.Engine.set_behavior engine 2 late;
  let trace = Thc_sim.Engine.run ~until:1_000_000L engine in
  Alcotest.(check int) "p0 eventually stopped after hearing all" 1
    (Thc_rounds.Directionality.rounds_completed trace ~pid:0);
  Alcotest.(check bool) "p0 heard the late writer" true (List.mem 2 !heard)

let () =
  Alcotest.run "thc_rounds"
    [
      ( "monitor",
        [
          Alcotest.test_case "mutual silence" `Quick test_monitor_detects_mutual_silence;
          Alcotest.test_case "one direction suffices" `Quick test_monitor_one_direction_suffices;
          Alcotest.test_case "both directions bi" `Quick test_monitor_both_directions_bi;
          Alcotest.test_case "needs both senders" `Quick test_monitor_needs_both_senders;
          Alcotest.test_case "needs round end" `Quick test_monitor_needs_round_end;
          Alcotest.test_case "ignores byzantine" `Quick test_monitor_ignores_byzantine;
          Alcotest.test_case "rounds completed" `Quick test_rounds_completed;
        ] );
      ( "swmr",
        [
          Alcotest.test_case "completes, uni" `Quick test_swmr_completes_and_uni;
          Alcotest.test_case "equivocation visible" `Quick test_swmr_byzantine_equivocation_visible;
          qcheck prop_swmr_uni_all_seeds;
        ] );
      ( "sticky/peats",
        [
          Alcotest.test_case "sticky driver" `Quick test_sticky_driver;
          Alcotest.test_case "sticky cell acl" `Quick test_sticky_cell_acl;
          Alcotest.test_case "peats driver" `Quick test_peats_driver;
        ] );
      ( "message-passing",
        [
          Alcotest.test_case "async completes" `Quick test_async_rounds_complete;
          Alcotest.test_case "async partition" `Quick test_async_rounds_partition_violates_uni;
          Alcotest.test_case "sync bidirectional" `Quick test_sync_rounds_bidirectional;
          Alcotest.test_case "sync broken bound" `Quick test_sync_rounds_break_without_bound;
          Alcotest.test_case "delta uni" `Quick test_delta_rounds_uni_with_offsets;
          Alcotest.test_case "rb1 partitioned pair" `Quick test_rb1_partitioned_pair;
          Alcotest.test_case "rb1 silent fault" `Quick test_rb1_tolerates_silent_fault;
          qcheck prop_rb1_uni_under_random_partition;
        ] );
      ("hold", [ Alcotest.test_case "keeps round open" `Quick test_hold_keeps_round_open ]);
    ]
