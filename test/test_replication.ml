(* Tests for the replication layer: the kv state machine, attested links,
   client plumbing, and both protocols under the harness's fault scenarios. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- kv store ---------------------------------------------------------------- *)

let test_kv_semantics () =
  let s = Thc_replication.Kv_store.create () in
  Alcotest.(check bool) "get missing" true
    (Thc_replication.Kv_store.apply s (Get "k") = Value None);
  Alcotest.(check bool) "put" true
    (Thc_replication.Kv_store.apply s (Put ("k", "v")) = Stored);
  Alcotest.(check bool) "get" true
    (Thc_replication.Kv_store.apply s (Get "k") = Value (Some "v"));
  Alcotest.(check bool) "incr fresh" true
    (Thc_replication.Kv_store.apply s (Incr "c") = Counter 1);
  Alcotest.(check bool) "incr again" true
    (Thc_replication.Kv_store.apply s (Incr "c") = Counter 2);
  Alcotest.(check bool) "incr over garbage counts from 0" true
    (Thc_replication.Kv_store.apply s (Incr "k") = Counter 1);
  Alcotest.(check bool) "delete" true
    (Thc_replication.Kv_store.apply s (Delete "k") = Stored);
  Alcotest.(check bool) "deleted gone" true
    (Thc_replication.Kv_store.apply s (Get "k") = Value None)

let test_kv_digest_reflects_content () =
  let a = Thc_replication.Kv_store.create () in
  let b = Thc_replication.Kv_store.create () in
  ignore (Thc_replication.Kv_store.apply a (Put ("x", "1")));
  ignore (Thc_replication.Kv_store.apply b (Put ("x", "1")));
  Alcotest.(check int64) "equal content equal digest"
    (Thc_replication.Kv_store.digest a)
    (Thc_replication.Kv_store.digest b);
  ignore (Thc_replication.Kv_store.apply b (Put ("y", "2")));
  Alcotest.(check bool) "different content different digest" true
    (Thc_replication.Kv_store.digest a <> Thc_replication.Kv_store.digest b)

let prop_kv_digest_order_insensitive =
  QCheck.Test.make ~name:"digest independent of insertion order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 10) (pair small_string small_string))
    (fun bindings ->
      (* Distinct keys: with duplicates the last write wins and order would
         legitimately matter. *)
      let bindings =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) bindings
      in
      let build order =
        let s = Thc_replication.Kv_store.create () in
        List.iter
          (fun (k, v) -> ignore (Thc_replication.Kv_store.apply s (Put (k, v))))
          order;
        Thc_replication.Kv_store.digest s
      in
      build bindings = build (List.rev bindings))

let test_kv_op_roundtrip () =
  let ops =
    Thc_replication.Kv_store.
      [ Get "a"; Put ("b", "v"); Delete "c"; Incr "d" ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool) "op roundtrips" true
        (Thc_replication.Kv_store.decode_op (Thc_replication.Kv_store.encode_op op)
        = op))
    ops

(* --- attested links ------------------------------------------------------------- *)

let trinc_world () =
  Thc_hardware.Trinc.create_world (Thc_util.Rng.create 121L) ~n:3

let test_link_seal_dense () =
  let world = trinc_world () in
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:0)
  in
  let a1 = Thc_replication.Attested_link.Out.seal out "m1" in
  let a2 = Thc_replication.Attested_link.Out.seal out "m2" in
  Alcotest.(check (pair int int)) "dense counters" (1, 2) (a1.counter, a2.counter);
  Alcotest.(check int) "prev chains" 1 a2.prev;
  Alcotest.(check int) "sent log" 2
    (List.length (Thc_replication.Attested_link.Out.sent_log out))

let test_link_in_order_release () =
  let world = trinc_world () in
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:0)
  in
  let a1 = Thc_replication.Attested_link.Out.seal out "m1" in
  let a2 = Thc_replication.Attested_link.Out.seal out "m2" in
  let a3 = Thc_replication.Attested_link.Out.seal out "m3" in
  let inbox = Thc_replication.Attested_link.In.create ~world ~n:3 in
  Alcotest.(check int) "gap buffers" 0
    (List.length (Thc_replication.Attested_link.In.accept inbox a2));
  Alcotest.(check int) "filling the gap releases both" 2
    (List.length (Thc_replication.Attested_link.In.accept inbox a1));
  Alcotest.(check int) "third releases immediately" 1
    (List.length (Thc_replication.Attested_link.In.accept inbox a3));
  Alcotest.(check int) "delivered upto" 3
    (Thc_replication.Attested_link.In.delivered_upto inbox ~owner:0);
  Alcotest.(check int) "duplicate ignored" 0
    (List.length (Thc_replication.Attested_link.In.accept inbox a2))

let test_link_check_log () =
  let world = trinc_world () in
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:1)
  in
  ignore (Thc_replication.Attested_link.Out.seal out "a");
  ignore (Thc_replication.Attested_link.Out.seal out "b");
  let log = Thc_replication.Attested_link.Out.sent_log out in
  (match Thc_replication.Attested_link.check_log ~world ~owner:1 log with
  | Some [ "a"; "b" ] -> ()
  | Some _ | None -> Alcotest.fail "honest log rejected");
  (match log with
  | [ _; b ] ->
    Alcotest.(check bool) "log with hidden head rejected" true
      (Thc_replication.Attested_link.check_log ~world ~owner:1 [ b ] = None)
  | _ -> Alcotest.fail "unexpected log shape");
  Alcotest.(check bool) "wrong owner rejected" true
    (Thc_replication.Attested_link.check_log ~world ~owner:0 log = None)

let test_link_rejection_ledger () =
  (* Each rejection class charges its own ledger label, and they all roll
     up into [Ledger.rejections] — the attack catalog's observable. *)
  let world = trinc_world () in
  let ledger = Thc_hardware.Trinc.ledger world in
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:0)
  in
  let a1 = Thc_replication.Attested_link.Out.seal out "m1" in
  let inbox = Thc_replication.Attested_link.In.create ~world ~n:3 in
  Alcotest.(check int) "fresh accepted" 1
    (List.length (Thc_replication.Attested_link.In.accept inbox a1));
  (* replay: counter already released *)
  Alcotest.(check int) "replay dropped" 0
    (List.length (Thc_replication.Attested_link.In.accept inbox a1));
  Alcotest.(check int) "replay charged" 1
    (Thc_obsv.Ledger.count ledger "link.reject_replay");
  (* forged: well-formed fields, tag from nowhere *)
  let forged =
    Thc_hardware.Trinc.counterfeit ~owner:0 ~prev:1 ~counter:2
      ~message:"forged" ~tag:99L
  in
  Alcotest.(check int) "forged dropped" 0
    (List.length (Thc_replication.Attested_link.In.accept inbox forged));
  Alcotest.(check int) "forged charged" 1
    (Thc_obsv.Ledger.count ledger "link.reject_forged");
  (* malformed: owner outside the cluster, and a broken prev chain *)
  let bad_owner =
    Thc_hardware.Trinc.counterfeit ~owner:7 ~prev:0 ~counter:1 ~message:"x"
      ~tag:0L
  in
  let bad_prev =
    Thc_hardware.Trinc.counterfeit ~owner:1 ~prev:3 ~counter:2 ~message:"x"
      ~tag:0L
  in
  ignore (Thc_replication.Attested_link.In.accept inbox bad_owner);
  ignore (Thc_replication.Attested_link.In.accept inbox bad_prev);
  Alcotest.(check int) "malformed charged" 2
    (Thc_obsv.Ledger.count ledger "link.reject_malformed");
  Alcotest.(check bool) "rejections rolls them up" true
    (Thc_obsv.Ledger.rejections ledger >= 4)

(* --- client collector -------------------------------------------------------------- *)

let test_collector_quorum () =
  let c = Thc_replication.Command.Collector.create ~quorum:2 in
  let reply replica result : Thc_replication.Command.reply =
    { replica; rid = 0; result }
  in
  Alcotest.(check (option string)) "first vote pending" None
    (Thc_replication.Command.Collector.add c (reply 0 "r"));
  Alcotest.(check (option string)) "duplicate replica ignored" None
    (Thc_replication.Command.Collector.add c (reply 0 "r"));
  Alcotest.(check (option string)) "disagreeing vote pending" None
    (Thc_replication.Command.Collector.add c (reply 1 "other"));
  Alcotest.(check (option string)) "matching quorum completes" (Some "r")
    (Thc_replication.Command.Collector.add c (reply 2 "r"));
  Alcotest.(check bool) "marked complete" true
    (Thc_replication.Command.Collector.completed c ~rid:0);
  Alcotest.(check (option string)) "late votes ignored" None
    (Thc_replication.Command.Collector.add c (reply 3 "r"))

let test_command_validation () =
  let keyring = Thc_crypto.Keyring.create (Thc_util.Rng.create 122L) ~n:4 in
  let sr =
    Thc_replication.Command.make
      ~ident:(Thc_crypto.Keyring.secret keyring ~pid:3)
      ~rid:7
      (Thc_replication.Kv_store.Get "k")
  in
  Alcotest.(check bool) "valid request" true
    (Thc_replication.Command.valid keyring sr);
  let forged = { sr with Thc_crypto.Signature.value = { sr.value with rid = 8 } } in
  Alcotest.(check bool) "tampered request rejected" false
    (Thc_replication.Command.valid keyring forged)

(* --- end-to-end scenarios ------------------------------------------------------------- *)

let setup protocol scenario seed =
  Thc_replication.Harness.Setup.make ~protocol ~f:1 ~ops:15 ~scenario ~seed ()

let healthy o =
  o.Thc_replication.Harness.safety_violations = []
  && o.Thc_replication.Harness.liveness_violations = []
  && o.Thc_replication.Harness.completed = 15

let scenarios =
  [
    ("fault-free", Thc_replication.Harness.Fault_free);
    ("crash-leader", Thc_replication.Harness.Crash_leader 35_000L);
    ("silent-replicas", Thc_replication.Harness.Silent_replicas);
  ]

let test_minbft_scenarios () =
  List.iter
    (fun (name, scenario) ->
      let o =
        Thc_replication.Harness.run
          (setup Thc_replication.Harness.Minbft scenario 7L)
      in
      if not (healthy o) then
        Alcotest.failf "minbft %s: %d/%d completed, %d safety, %d liveness"
          name o.completed 15
          (List.length o.safety_violations)
          (List.length o.liveness_violations))
    scenarios

let test_pbft_scenarios () =
  List.iter
    (fun (name, scenario) ->
      let o =
        Thc_replication.Harness.run
          (setup Thc_replication.Harness.Pbft scenario 7L)
      in
      if not (healthy o) then
        Alcotest.failf "pbft %s: %d/%d completed, %d safety, %d liveness"
          name o.completed 15
          (List.length o.safety_violations)
          (List.length o.liveness_violations))
    scenarios

let test_minbft_beats_pbft_on_messages () =
  let m =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         Thc_replication.Harness.Fault_free 9L)
  in
  let p =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Pbft
         Thc_replication.Harness.Fault_free 9L)
  in
  Alcotest.(check bool) "fewer replicas" true (m.replicas < p.replicas);
  Alcotest.(check bool) "fewer messages per op" true
    (m.messages_per_op < p.messages_per_op);
  Alcotest.(check bool) "lower mean latency" true
    (m.latency.mean < p.latency.mean)

let test_crash_leader_forces_view_change () =
  let o =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         (Thc_replication.Harness.Crash_leader 35_000L)
         13L)
  in
  Alcotest.(check bool) "view advanced" true (o.final_view >= 1);
  Alcotest.(check bool) "still healthy" true (healthy o)

let prop_minbft_random_seeds =
  QCheck.Test.make ~name:"minbft safe and live across seeds" ~count:5
    QCheck.int64
    (fun seed ->
      healthy
        (Thc_replication.Harness.run
           (setup Thc_replication.Harness.Minbft
              Thc_replication.Harness.Fault_free seed)))

let prop_minbft_crash_random_seeds =
  QCheck.Test.make ~name:"minbft recovers leader crashes across seeds"
    ~count:5 QCheck.int64
    (fun seed ->
      let o =
        Thc_replication.Harness.run
          (setup Thc_replication.Harness.Minbft
             (Thc_replication.Harness.Crash_leader 35_000L)
             seed)
      in
      healthy o)

let test_harness_deterministic () =
  (* Whole-cluster determinism: identical setup, identical outcome. *)
  let run () =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         (Thc_replication.Harness.Crash_leader 35_000L)
         21L)
  in
  let a = run () and b = run () in
  Alcotest.(check string) "identical outcomes"
    (Thc_util.Codec.encode (a.completed, a.messages, a.final_view, a.latency))
    (Thc_util.Codec.encode (b.completed, b.messages, b.final_view, b.latency))

let test_workload_deterministic () =
  Alcotest.(check bool) "same seed same workload" true
    (Thc_replication.Harness.default_workload ~ops:20 ~seed:5L
    = Thc_replication.Harness.default_workload ~ops:20 ~seed:5L)

(* --- uBFT-sim on SWMR registers ------------------------------------------------------ *)

let test_ubft_scenarios () =
  List.iter
    (fun (name, scenario) ->
      let o =
        Thc_replication.Harness.run
          (setup Thc_replication.Harness.Ubft scenario 7L)
      in
      if not (healthy o) then
        Alcotest.failf "ubft %s: %d/%d completed, %d safety, %d liveness"
          name o.completed 15
          (List.length o.safety_violations)
          (List.length o.liveness_violations))
    scenarios

let test_ubft_beats_minbft () =
  (* The "strictly stronger" edge as a measurement: the register protocol's
     3-hop common case undercuts MinBFT's 4 hops at equal f, on both the
     median and the wire bill — while spending register ops where MinBFT
     spends counter seals. *)
  let u =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Ubft
         Thc_replication.Harness.Fault_free 9L)
  in
  let m =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         Thc_replication.Harness.Fault_free 9L)
  in
  let p50 o =
    match Thc_obsv.Metrics.Histogram.p50 o.Thc_replication.Harness.lat_hist with
    | Some v -> v
    | None -> Alcotest.fail "empty latency histogram"
  in
  Alcotest.(check bool) "same replica count" true (u.replicas = m.replicas);
  Alcotest.(check bool) "lower p50 latency" true (p50 u < p50 m);
  Alcotest.(check bool) "fewer messages per op" true
    (u.messages_per_op < m.messages_per_op);
  Alcotest.(check bool) "spends register ops" true (u.trusted_per_request > 0.)

let test_ubft_crash_leader_forces_view_change () =
  let o =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Ubft
         (Thc_replication.Harness.Crash_leader 35_000L)
         13L)
  in
  Alcotest.(check bool) "view advanced" true (o.final_view >= 1);
  Alcotest.(check bool) "still healthy" true (healthy o)

let test_ubft_deterministic () =
  let run () =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Ubft
         (Thc_replication.Harness.Crash_leader 35_000L)
         21L)
  in
  let a = run () and b = run () in
  Alcotest.(check string) "identical outcomes"
    (Thc_util.Codec.encode (a.completed, a.messages, a.final_view, a.latency))
    (Thc_util.Codec.encode (b.completed, b.messages, b.final_view, b.latency))

let prop_ubft_random_seeds =
  QCheck.Test.make ~name:"ubft safe and live across seeds" ~count:5
    QCheck.int64
    (fun seed ->
      healthy
        (Thc_replication.Harness.run
           (setup Thc_replication.Harness.Ubft
              Thc_replication.Harness.Fault_free seed)))

let test_ubft_registers_bounded () =
  (* The truncate-on-checkpoint discipline: run well past several checkpoint
     intervals and check no register grew linearly with history.  40 slots
     at checkpoint_interval 16 means a leader register that would hold 40+
     records without truncation. *)
  let f = 1 in
  let config = Thc_replication.Ubft.default_config ~f in
  let n = config.Thc_replication.Ubft.n in
  let seed = 11L in
  let rng = Thc_util.Rng.create seed in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + 1) in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let net =
    Thc_sim.Net.create ~n:(n + 1) ~default:(Thc_sim.Delay.Uniform (50L, 500L))
  in
  let engine = Thc_sim.Engine.create ~seed ~n:(n + 1) ~net () in
  let replicas =
    Array.init n (fun pid ->
        Thc_replication.Ubft.create_replica ~config ~keyring ~registers
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~self:pid)
  in
  Array.iteri
    (fun pid r ->
      Thc_sim.Engine.set_behavior engine pid (Thc_replication.Ubft.replica r))
    replicas;
  let ops = 40 in
  let plan =
    List.init ops (fun i ->
        (Int64.of_int ((i + 1) * 3_000), Thc_replication.Kv_store.Incr "c"))
  in
  Thc_sim.Engine.set_behavior engine n
    (Thc_replication.Ubft.client ~rid_base:0 ~config ~keyring
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:n)
       ~plan);
  let trace =
    Thc_sim.Engine.run ~until:400_000L ~max_events:20_000_000 engine
  in
  Alcotest.(check int) "safety clean" 0
    (List.length (Thc_replication.Smr_spec.check_safety trace ~replicas:n));
  Alcotest.(check bool) "all slots executed" true
    (Array.for_all
       (fun r -> Thc_replication.Ubft.executed_upto r = ops)
       replicas);
  Array.iteri
    (fun pid r ->
      let len = Thc_replication.Ubft.register_len r in
      if len <= 0 || len > 2 * config.Thc_replication.Ubft.checkpoint_interval + 4
      then
        Alcotest.failf "replica %d register has %d records (interval %d)" pid
          len config.Thc_replication.Ubft.checkpoint_interval)
    replicas

(* --- Byzantine replica attacks ------------------------------------------------------ *)

(* A Byzantine non-leader replica with a real trinket, throwing everything it
   has: counterfeit attestations, replayed genuine attestations, prepares it
   is not entitled to send, and garbage payloads. *)
let byzantine_replica ~world ~keyring ~byz_pid () :
    Thc_replication.Minbft.msg Thc_sim.Engine.behavior =
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:byz_pid)
  in
  let forged_request =
    (* Self-signed request claiming to be from the real client (pid 3):
       signature will not verify as that client. *)
    Thc_crypto.Signature.seal
      (Thc_crypto.Keyring.secret keyring ~pid:byz_pid)
      ({ client = 3; rid = 99; op = Thc_replication.Kv_store.encode_op (Put ("k", "evil")) }
        : Thc_replication.Command.request)
  in
  let replays = ref 0 in
  {
    init = (fun ctx -> ctx.set_timer ~delay:1_000L ~tag:0);
    on_message =
      (fun ctx ~src:_ msg ->
        (* Replay what it hears, verbatim (bounded so the self-echo does not
           amplify without limit). *)
        if !replays < 200 then begin
          incr replays;
          ctx.broadcast msg
        end);
    on_timer =
      (fun ctx _ ->
        (* Counterfeit attestation from the leader. *)
        ctx.broadcast
          (Thc_replication.Minbft.adversarial_wire
             (Thc_hardware.Trinc.counterfeit ~owner:0 ~prev:7 ~counter:8
                ~message:"junk" ~tag:0xBADL));
        (* A prepare it is not entitled to send (not the leader). *)
        ctx.broadcast
          (Thc_replication.Minbft.adversarial_prepare ~out ~view:0 ~seq:1
             ~request:forged_request);
        (* Garbage sealed payload (undecodable proto). *)
        ctx.broadcast
          (Thc_replication.Minbft.adversarial_wire
             (Thc_hardware.Trinc.counterfeit ~owner:byz_pid ~prev:0 ~counter:1
                ~message:"not-a-proto" ~tag:1L));
        ctx.set_timer ~delay:5_000L ~tag:0);
  }

let test_minbft_byzantine_replica_flood () =
  let f = 1 in
  let config = Thc_replication.Minbft.default_config ~f in
  let n = config.Thc_replication.Minbft.n in
  let byz_pid = n - 1 in
  let seed = 41L in
  let rng = Thc_util.Rng.create seed in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + 1) in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let net =
    Thc_sim.Net.create ~n:(n + 1) ~default:(Thc_sim.Delay.Uniform (50L, 500L))
  in
  let engine = Thc_sim.Engine.create ~seed ~n:(n + 1) ~net () in
  for pid = 0 to n - 2 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_replication.Minbft.replica
         (Thc_replication.Minbft.create_replica ~config ~keyring ~world
            ~trinket:(Thc_hardware.Trinc.trinket world ~owner:pid)
            ~self:pid))
  done;
  Thc_sim.Engine.mark_byzantine engine byz_pid;
  Thc_sim.Engine.set_behavior engine byz_pid
    (byzantine_replica ~world ~keyring ~byz_pid ());
  let plan =
    List.init 10 (fun i ->
        (Int64.of_int ((i + 1) * 5_000), Thc_replication.Kv_store.Incr "c"))
  in
  Thc_sim.Engine.set_behavior engine n
    (Thc_replication.Minbft.client ~rid_base:0 ~config ~keyring
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:n)
       ~plan);
  let trace =
    Thc_sim.Engine.run ~until:200_000L ~max_events:20_000_000 engine
  in
  Alcotest.(check int) "safety clean under flood" 0
    (List.length (Thc_replication.Smr_spec.check_safety trace ~replicas:n));
  Alcotest.(check int) "all requests complete" 0
    (List.length
       (Thc_replication.Smr_spec.check_liveness trace
          ~expected:[ (n, List.init 10 Fun.id) ]))

let test_pbft_byzantine_replica_flood () =
  (* PBFT's counterpart: a Byzantine non-leader spams forged signed wires
     and replays; 3f+1 quorums absorb it. *)
  let f = 1 in
  let config = Thc_replication.Pbft.default_config ~f in
  let n = config.Thc_replication.Pbft.n in
  let byz_pid = n - 1 in
  let seed = 43L in
  let rng = Thc_util.Rng.create seed in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + 1) in
  let net =
    Thc_sim.Net.create ~n:(n + 1) ~default:(Thc_sim.Delay.Uniform (50L, 500L))
  in
  let engine = Thc_sim.Engine.create ~seed ~n:(n + 1) ~net () in
  for pid = 0 to n - 2 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_replication.Pbft.replica
         (Thc_replication.Pbft.create_replica ~config ~keyring
            ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
            ~self:pid))
  done;
  Thc_sim.Engine.mark_byzantine engine byz_pid;
  let replays = ref 0 in
  let byz : Thc_replication.Pbft.msg Thc_sim.Engine.behavior =
    {
      init = (fun _ -> ());
      on_message =
        (fun ctx ~src:_ msg ->
          if !replays < 200 then begin
            incr replays;
            ctx.broadcast msg
          end);
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine byz_pid byz;
  let plan =
    List.init 10 (fun i ->
        (Int64.of_int ((i + 1) * 5_000), Thc_replication.Kv_store.Incr "c"))
  in
  Thc_sim.Engine.set_behavior engine n
    (Thc_replication.Pbft.client ~rid_base:0 ~config ~keyring
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:n)
       ~plan);
  let trace = Thc_sim.Engine.run ~until:200_000L ~max_events:20_000_000 engine in
  Alcotest.(check int) "safety clean" 0
    (List.length (Thc_replication.Smr_spec.check_safety trace ~replicas:n));
  Alcotest.(check int) "liveness clean" 0
    (List.length
       (Thc_replication.Smr_spec.check_liveness trace
          ~expected:[ (n, List.init 10 Fun.id) ]))

(* --- random admissible adversaries ------------------------------------------------ *)

let run_minbft_under_adversary seed =
  let f = 1 in
  let config = Thc_replication.Minbft.default_config ~f in
  let n = config.Thc_replication.Minbft.n in
  let rng = Thc_util.Rng.create seed in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + 1) in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let net =
    Thc_sim.Net.create ~n:(n + 1) ~default:(Thc_sim.Delay.Uniform (50L, 500L))
  in
  let engine = Thc_sim.Engine.create ~seed ~n:(n + 1) ~net () in
  let adv_rng = Thc_util.Rng.create (Int64.add seed 1000L) in
  let script =
    Thc_sim.Adversary.random adv_rng ~n ~horizon:200_000L ~crash_budget:f ()
  in
  Array.iteri
    (fun pid st ->
      Thc_sim.Engine.set_behavior engine pid (Thc_replication.Minbft.replica st))
    (Array.init n (fun self ->
         Thc_replication.Minbft.create_replica ~config ~keyring ~world
           ~trinket:(Thc_hardware.Trinc.trinket world ~owner:self)
           ~self));
  let plan =
    List.init 10 (fun i ->
        (Int64.of_int ((i + 1) * 5_000), Thc_replication.Kv_store.Incr "c"))
  in
  Thc_sim.Engine.set_behavior engine n
    (Thc_replication.Minbft.client ~rid_base:0 ~config ~keyring
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:n)
       ~plan);
  Thc_sim.Adversary.install script engine;
  let trace = Thc_sim.Engine.run ~until:2_000_000L ~max_events:20_000_000 engine in
  ( Thc_replication.Smr_spec.check_safety trace ~replicas:n,
    Thc_replication.Smr_spec.check_liveness trace ~expected:[ (n, List.init 10 Fun.id) ] )

let prop_minbft_random_adversaries =
  QCheck.Test.make
    ~name:"minbft safe and live under random crashes + healed partitions"
    ~count:8 QCheck.int64
    (fun seed ->
      let safety, liveness = run_minbft_under_adversary seed in
      safety = [] && liveness = [])

(* --- ablation: non-equivocation is load-bearing ---------------------------------- *)

let test_ablation_unattested_splits () =
  let r = Thc_replication.Ablation.equivocation_splits_unattested () in
  Alcotest.(check bool) "safety violated" true (r.violations <> []);
  Alcotest.(check int) "two ops committed at seq 1" 2 r.distinct_ops_at_seq1

let test_ablation_minbft_holds () =
  let r = Thc_replication.Ablation.equivocation_fails_against_minbft () in
  Alcotest.(check int) "no safety violations" 0 (List.length r.violations);
  Alcotest.(check bool) "at most one op at seq 1" true (r.distinct_ops_at_seq1 <= 1)

let prop_ablation_across_f =
  QCheck.Test.make ~name:"ablation holds for f in 1..3" ~count:3
    QCheck.(int_range 1 3)
    (fun f ->
      let split = Thc_replication.Ablation.equivocation_splits_unattested ~f () in
      let held = Thc_replication.Ablation.equivocation_fails_against_minbft ~f () in
      split.violations <> []
      && split.distinct_ops_at_seq1 = 2
      && held.violations = []
      && held.distinct_ops_at_seq1 <= 1)

(* --- scripted faults and the replay monitor ------------------------------- *)

let test_scripted_scenario_minbft () =
  (* One replica crash (= f) plus a healed partition: MinBFT must stay safe
     and, because the script stays within the fault bound, live. *)
  let script =
    {
      Thc_sim.Adversary.events =
        [
          { at = 30_000L; action = Thc_sim.Adversary.Crash 2 };
          {
            at = 60_000L;
            action = Thc_sim.Adversary.Block_groups [ [ 0 ]; [ 1; 2 ] ];
          };
          { at = 90_000L; action = Thc_sim.Adversary.Heal };
        ];
      horizon = 120_000L;
    }
  in
  let o =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         (Thc_replication.Harness.Scripted script)
         17L)
  in
  Alcotest.(check int) "no safety violations" 0
    (List.length o.safety_violations);
  Alcotest.(check int) "no liveness violations" 0
    (List.length o.liveness_violations)

let test_scripted_over_budget_waives_liveness () =
  (* Crashing 2 of 3 replicas (> f) cannot keep the cluster live; the
     harness must demand safety only. *)
  let script =
    {
      Thc_sim.Adversary.events =
        [
          { at = 20_000L; action = Thc_sim.Adversary.Crash 1 };
          { at = 20_000L; action = Thc_sim.Adversary.Crash 2 };
        ];
      horizon = 100_000L;
    }
  in
  let o =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         (Thc_replication.Harness.Scripted script)
         19L)
  in
  Alcotest.(check int) "still safe" 0 (List.length o.safety_violations);
  Alcotest.(check int) "liveness not demanded" 0
    (List.length o.liveness_violations)

(* --- batching and multiple clients ------------------------------------------ *)

let total_trusted (o : Thc_replication.Harness.outcome) =
  List.fold_left (fun acc (_, c) -> acc + c) 0 o.trusted_ops

let test_multi_client_disjoint_rids () =
  (* Three clients, each with its own rid block; every request must complete
     and the per-client latency map must cover all three client pids. *)
  let o =
    Thc_replication.Harness.run
      {
        (setup Thc_replication.Harness.Minbft
           Thc_replication.Harness.Fault_free 23L)
        with
        clients = 3;
      }
  in
  Alcotest.(check int) "all clients' requests completed" 45 o.completed;
  Alcotest.(check int) "no safety violations" 0
    (List.length o.safety_violations);
  Alcotest.(check int) "no liveness violations" 0
    (List.length o.liveness_violations);
  Alcotest.(check (list int)) "per-client latency groups"
    [ o.replicas; o.replicas + 1; o.replicas + 2 ]
    (List.map fst o.latency_by_client);
  List.iter
    (fun (_, (s : Thc_util.Stats.summary)) ->
      Alcotest.(check int) "15 latencies per client" 15 s.count)
    o.latency_by_client

let test_batching_amortizes_attestations () =
  (* One attestation seals a whole Prepare/Commit batch, so at batch 4 the
     per-request trusted-op rate must fall strictly below batch 1's. *)
  let run batch =
    Thc_replication.Harness.run
      {
        (setup Thc_replication.Harness.Minbft
           Thc_replication.Harness.Fault_free 29L)
        with
        clients = 2;
        batch;
        interval = 1_000L;
      }
  in
  let b1 = run 1 and b4 = run 4 in
  Alcotest.(check int) "batch 1 completes all" 30 b1.completed;
  Alcotest.(check int) "batch 4 completes all" 30 b4.completed;
  Alcotest.(check bool) "fewer slots with batching" true
    (b4.commits < b1.commits);
  Alcotest.(check bool)
    (Printf.sprintf "fewer trusted ops per request (%.2f < %.2f)"
       b4.trusted_per_request b1.trusted_per_request)
    true
    (b4.trusted_per_request < b1.trusted_per_request);
  Alcotest.(check bool) "fewer trusted ops in total" true
    (total_trusted b4 < total_trusted b1)

let test_batched_safety_under_scripted_adversary () =
  (* Batch 4 with two clients under a crash (= f) plus a healed partition:
     the linearizability monitors (pairwise prefixes + dense sequential
     replay) and liveness must still pass, and attestations stay per batch:
     strictly fewer trusted ops than the same script at batch 1. *)
  let script =
    {
      Thc_sim.Adversary.events =
        [
          { at = 30_000L; action = Thc_sim.Adversary.Crash 2 };
          {
            at = 60_000L;
            action = Thc_sim.Adversary.Block_groups [ [ 0 ]; [ 1; 2 ] ];
          };
          { at = 90_000L; action = Thc_sim.Adversary.Heal };
        ];
      horizon = 120_000L;
    }
  in
  let run batch =
    Thc_replication.Harness.run
      {
        (setup Thc_replication.Harness.Minbft
           (Thc_replication.Harness.Scripted script) 31L)
        with
        clients = 2;
        batch;
      }
  in
  let b4 = run 4 in
  Alcotest.(check int) "all requests completed" 30 b4.completed;
  Alcotest.(check int) "linearizable prefixes (safety)" 0
    (List.length b4.safety_violations);
  Alcotest.(check int) "liveness within fault budget" 0
    (List.length b4.liveness_violations);
  let b1 = run 1 in
  Alcotest.(check int) "unbatched run is the baseline" 0
    (List.length b1.safety_violations);
  Alcotest.(check bool) "per-batch attestations beat per-request" true
    (total_trusted b4 < total_trusted b1)

let test_pbft_batched_under_scripted_adversary () =
  let script =
    {
      Thc_sim.Adversary.events =
        [ { at = 30_000L; action = Thc_sim.Adversary.Crash 2 } ];
      horizon = 100_000L;
    }
  in
  let o =
    Thc_replication.Harness.run
      {
        (setup Thc_replication.Harness.Pbft
           (Thc_replication.Harness.Scripted script) 37L)
        with
        clients = 2;
        batch = 4;
      }
  in
  Alcotest.(check int) "all requests completed" 30 o.completed;
  Alcotest.(check int) "no safety violations" 0
    (List.length o.safety_violations);
  Alcotest.(check int) "no liveness violations" 0
    (List.length o.liveness_violations)

(* A synthetic trace exercising the replay monitor without a protocol: one
   process that just records Executed observations. *)
let replay_trace observations =
  let engine =
    Thc_sim.Engine.create ~n:1
      ~net:(Thc_sim.Net.create ~n:1 ~default:(Thc_sim.Delay.Const 10L))
      ()
  in
  Thc_sim.Engine.set_behavior engine 0
    {
      Thc_sim.Engine.init =
        (fun ctx -> List.iter (fun obs -> ctx.output obs) observations);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    };
  Thc_sim.Engine.run engine

let executed ~seq op =
  let store = Thc_replication.Kv_store.create () in
  Thc_sim.Obs.Executed
    {
      seq;
      op = Thc_replication.Kv_store.encode_op op;
      result =
        Thc_replication.Kv_store.encode_result
          (Thc_replication.Kv_store.apply store op);
    }

let test_state_determinism_accepts_sequential () =
  (* incr;incr replayed from scratch gives Counter 1, Counter 2 — record
     exactly that. *)
  let trace =
    replay_trace
      [
        Thc_sim.Obs.Executed
          {
            seq = 1;
            op = Thc_replication.Kv_store.encode_op (Incr "c");
            result = Thc_replication.Kv_store.encode_result (Counter 1);
          };
        Thc_sim.Obs.Executed
          {
            seq = 2;
            op = Thc_replication.Kv_store.encode_op (Incr "c");
            result = Thc_replication.Kv_store.encode_result (Counter 2);
          };
      ]
  in
  Alcotest.(check int) "clean history accepted" 0
    (List.length (Thc_replication.Smr_spec.check_state_determinism trace ~replicas:1))

let test_state_determinism_rejects_stale_result () =
  (* Both observations record the result of applying to a FRESH store, so
     the second Incr claims Counter 1 where sequential replay gives 2. *)
  let trace = replay_trace [ executed ~seq:1 (Incr "c"); executed ~seq:2 (Incr "c") ] in
  (match Thc_replication.Smr_spec.check_state_determinism trace ~replicas:1 with
  | [ { property = `Replay; _ } ] -> ()
  | vs -> Alcotest.failf "expected one replay violation, got %d" (List.length vs))

let test_state_determinism_rejects_gap () =
  let trace = replay_trace [ executed ~seq:1 (Incr "c"); executed ~seq:3 (Incr "c") ] in
  (match Thc_replication.Smr_spec.check_state_determinism trace ~replicas:1 with
  | [ { property = `Replay; _ } ] -> ()
  | vs -> Alcotest.failf "expected one replay violation, got %d" (List.length vs))

(* --- post-run reductions ------------------------------------------------------ *)

(* A hand-built trace over 4 replicas (pids 0-3) and 2 clients (pids 4, 5):
   p1 is marked Byzantine, p2 commits and executes and then crashes, p3
   executes seq 1 twice, and client p4 never completes rid 1. *)
let reduction_trace () =
  let module T = Thc_sim.Trace in
  let out time pid obs = T.Output { time; pid; obs } in
  let committed seq = Thc_sim.Obs.Committed { view = 0; seq; op = "op" } in
  let exec seq op result = Thc_sim.Obs.Executed { seq; op; result } in
  let client_done rid = Thc_sim.Obs.Client_done { rid; latency_us = 100L } in
  T.make ~n:6 ~byzantine:[ 1 ] ~end_time:100L
    [
      T.Sent { time = 1L; src = 4; dst = 0; seq = 0; msg = "req" };
      T.Delivered { time = 2L; src = 4; dst = 0; seq = 0; msg = "req" };
      out 10L 0 (committed 1);
      out 10L 0 (exec 1 "a" "ra");
      out 11L 3 (committed 1);
      out 11L 3 (exec 1 "a" "ra");
      (* The second execution of seq 1 disagrees with p0, but the first one wins. *)
      out 12L 3 (exec 1 "x" "rx");
      out 13L 2 (committed 5);
      out 13L 2 (exec 2 "crashed-op" "r");
      T.Crashed { time = 14L; pid = 2 };
      out 15L 1 (committed 6);
      out 15L 1 (exec 2 "byzantine-op" "r");
      out 16L 4 (committed 7);
      out 20L 0 (committed 2);
      out 20L 0 (exec 2 "b" "rb");
      out 21L 3 (committed 2);
      out 21L 3 (exec 2 "c" "rc");
      out 22L 0 (committed 3);
      out 22L 0 (exec 3 "d" "r1");
      out 23L 3 (committed 4);
      out 23L 3 (exec 3 "d" "r2");
      out 30L 4 (client_done 0);
      out 31L 4 (client_done 2);
      out 32L 5 (client_done 1);
      out 33L 5 (client_done 3);
      out 34L 5 (client_done 4);
      out 35L 5 (client_done 3);
    ]

let shown violations =
  List.map (Format.asprintf "%a" Thc_replication.Smr_spec.pp_violation) violations

let liveness_expectation = [ (4, [ 0; 1; 2 ]); (5, [ 3; 4 ]) ]

let test_reductions_exact () =
  let module S = Thc_replication.Smr_spec in
  let trace = reduction_trace () in
  Alcotest.(check (list int)) "crashed set" [ 2 ] trace.Thc_sim.Trace.crashed;
  Alcotest.(check (list int)) "correct pids" [ 0; 3; 4; 5 ]
    (Thc_sim.Trace.correct_pids trace);
  Alcotest.(check int) "commits of correct replicas only" 4 (S.commits trace ~replicas:4);
  Alcotest.(check (list string)) "safety"
    [
      "SMR order violation: p0/p3 differ at seq 2";
      "SMR result violation: p0/p3 diverge at seq 3";
    ]
    (shown (S.check_safety trace ~replicas:4));
  Alcotest.(check (list string)) "liveness"
    [ "SMR liveness violation: client p4 request #1 incomplete" ]
    (shown (S.check_liveness trace ~expected:liveness_expectation))

let test_crashed_survives_rebuilds () =
  let trace = reduction_trace () in
  let rebuilt =
    match Thc_sim.Trace.(of_jsonl (to_jsonl ~encode_msg:Fun.id trace)) with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let mapped = Thc_sim.Trace.map_msg String.length trace in
  Alcotest.(check bool) "jsonl round trip" false (Thc_sim.Trace.correct rebuilt 2);
  Alcotest.(check bool) "map_msg" false (Thc_sim.Trace.correct mapped 2);
  Alcotest.(check (list int)) "jsonl correct pids" [ 0; 3; 4; 5 ]
    (Thc_sim.Trace.correct_pids rebuilt);
  Alcotest.(check int) "jsonl commits" 4
    (Thc_replication.Smr_spec.commits rebuilt ~replicas:4)

(* Direct, quadratic-time statements of the same reductions: a whole-trace
   crash scan per correctness query, [List.assoc_opt] per executed seq and
   [List.mem] per expected rid.  The single-pass versions must agree with
   them on every trace. *)
module Reference = struct
  let correct (trace : _ Thc_sim.Trace.t) pid =
    let crashed =
      List.filter_map
        (function Thc_sim.Trace.Crashed { pid; _ } -> Some pid | _ -> None)
        trace.entries
    in
    (not (List.mem pid trace.byzantine)) && not (List.mem pid crashed)

  let outputs_of (trace : _ Thc_sim.Trace.t) pid =
    List.filter_map
      (function Thc_sim.Trace.Output { pid = p; obs; _ } when p = pid -> Some obs | _ -> None)
      trace.entries

  let commits (trace : _ Thc_sim.Trace.t) ~replicas =
    List.filter_map
      (function
        | Thc_sim.Trace.Output { pid; obs = Committed { seq; _ }; _ }
          when pid < replicas && correct trace pid ->
          Some seq
        | _ -> None)
      trace.entries
    |> List.sort_uniq compare |> List.length

  let check_safety (trace : _ Thc_sim.Trace.t) ~replicas =
    let execs =
      List.init trace.n Fun.id
      |> List.filter (fun p -> p < replicas && correct trace p)
      |> List.map (fun pid ->
             ( pid,
               List.filter_map
                 (function
                   | Thc_sim.Obs.Executed { seq; op; result } -> Some (seq, (op, result))
                   | _ -> None)
                 (outputs_of trace pid) ))
    in
    List.concat_map
      (fun (p, ep) ->
        List.concat_map
          (fun (q, eq) ->
            if p >= q then []
            else
              List.filter_map
                (fun (seq, (op, result)) ->
                  match List.assoc_opt seq eq with
                  | None -> None
                  | Some (op', result') ->
                    if op <> op' then
                      Some (Printf.sprintf "SMR order violation: p%d/p%d differ at seq %d" p q seq)
                    else if result <> result' then
                      Some
                        (Printf.sprintf "SMR result violation: p%d/p%d diverge at seq %d" p q
                           seq)
                    else None)
                ep)
          execs)
      execs

  let check_liveness trace ~expected =
    List.concat_map
      (fun (client, rids) ->
        let done_rids =
          List.filter_map
            (function Thc_sim.Obs.Client_done { rid; _ } -> Some rid | _ -> None)
            (outputs_of trace client)
        in
        List.filter_map
          (fun rid ->
            if List.mem rid done_rids then None
            else
              Some
                (Printf.sprintf "SMR liveness violation: client p%d request #%d incomplete"
                   client rid))
          rids)
      expected
end

let gen_reduction_trace =
  let open QCheck.Gen in
  let obs =
    oneof
      [
        map (fun seq -> Thc_sim.Obs.Committed { view = 0; seq; op = "" }) (0 -- 6);
        map3
          (fun seq op result -> Thc_sim.Obs.Executed { seq; op; result })
          (0 -- 6)
          (oneofl [ "a"; "b" ])
          (oneofl [ "r"; "s" ]);
        map (fun rid -> Thc_sim.Obs.Client_done { rid; latency_us = 1L }) (0 -- 6);
      ]
  in
  let entry =
    frequency
      [
        (8, map2 (fun pid obs -> Thc_sim.Trace.Output { time = 0L; pid; obs }) (0 -- 5) obs);
        (1, map (fun pid -> Thc_sim.Trace.Crashed { time = 0L; pid }) (0 -- 5));
      ]
  in
  map2
    (fun byzantine entries ->
      Thc_sim.Trace.make ~n:6 ~byzantine ~end_time:0L (entries : unit Thc_sim.Trace.entry list))
    (list_size (0 -- 2) (0 -- 5))
    (list_size (0 -- 60) entry)

let prop_reductions_match_reference =
  QCheck.Test.make ~name:"single-pass reductions match the reference" ~count:300
    (QCheck.make gen_reduction_trace)
    (fun trace ->
      let module S = Thc_replication.Smr_spec in
      let expected = [ (4, [ 0; 1; 2; 3 ]); (5, [ 2; 5; 6 ]) ] in
      S.commits trace ~replicas:4 = Reference.commits trace ~replicas:4
      && shown (S.check_safety trace ~replicas:4) = Reference.check_safety trace ~replicas:4
      && shown (S.check_liveness trace ~expected) = Reference.check_liveness trace ~expected
      && Thc_sim.Trace.correct_pids trace
         = List.filter (Reference.correct trace) (List.init 6 Fun.id))

(* --- throughput mode ------------------------------------------------------------------- *)

(* [run_lite] promises [run]'s schedule with a thinner trace: every count
   both report must agree, for every protocol. *)
let test_lite_agrees_with_run () =
  let module H = Thc_replication.Harness in
  List.iter
    (fun protocol ->
      List.iter
        (fun (name, clients, batch, scenario) ->
          let setup =
            H.Setup.make ~protocol ~f:1 ~ops:20 ~clients ~batch ~scenario
              ~seed:5L ()
          in
          let o = H.run setup and l = H.run_lite setup in
          let label what =
            Printf.sprintf "%s %s %s"
              (Thc_replication.Protocol.to_string protocol)
              name what
          in
          Alcotest.(check int) (label "completed") o.completed l.l_completed;
          Alcotest.(check int) (label "commits") o.commits l.l_commits;
          Alcotest.(check int) (label "messages") o.messages l.l_messages;
          Alcotest.(check int) (label "events") o.events l.l_events;
          Alcotest.(check int64) (label "duration") o.duration_us
            l.l_duration_us)
        [
          ("1x1", 1, 1, H.Fault_free);
          ("4x4", 4, 4, H.Fault_free);
          ("crash", 2, 1, H.Crash_leader 35_000L);
        ])
    Thc_replication.Protocol.all

let () =
  Alcotest.run "thc_replication"
    [
      ( "kv-store",
        [
          Alcotest.test_case "semantics" `Quick test_kv_semantics;
          Alcotest.test_case "digest" `Quick test_kv_digest_reflects_content;
          Alcotest.test_case "op roundtrip" `Quick test_kv_op_roundtrip;
          qcheck prop_kv_digest_order_insensitive;
        ] );
      ( "attested-link",
        [
          Alcotest.test_case "seal dense" `Quick test_link_seal_dense;
          Alcotest.test_case "in-order release" `Quick test_link_in_order_release;
          Alcotest.test_case "check log" `Quick test_link_check_log;
          Alcotest.test_case "rejection ledger" `Quick
            test_link_rejection_ledger;
        ] );
      ( "client",
        [
          Alcotest.test_case "collector quorum" `Quick test_collector_quorum;
          Alcotest.test_case "command validation" `Quick test_command_validation;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "minbft all scenarios" `Quick test_minbft_scenarios;
          Alcotest.test_case "pbft all scenarios" `Quick test_pbft_scenarios;
          Alcotest.test_case "minbft beats pbft" `Quick test_minbft_beats_pbft_on_messages;
          Alcotest.test_case "crash forces view change" `Quick test_crash_leader_forces_view_change;
          Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "harness deterministic" `Quick test_harness_deterministic;
          qcheck prop_minbft_random_seeds;
          qcheck prop_minbft_crash_random_seeds;
          Alcotest.test_case "ubft all scenarios" `Quick test_ubft_scenarios;
          Alcotest.test_case "ubft beats minbft" `Quick test_ubft_beats_minbft;
          Alcotest.test_case "ubft crash forces view change" `Quick
            test_ubft_crash_leader_forces_view_change;
          Alcotest.test_case "ubft deterministic" `Quick test_ubft_deterministic;
          Alcotest.test_case "ubft registers bounded" `Quick
            test_ubft_registers_bounded;
          qcheck prop_ubft_random_seeds;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "byzantine replica flood" `Quick
            test_minbft_byzantine_replica_flood;
          Alcotest.test_case "pbft byzantine flood" `Quick
            test_pbft_byzantine_replica_flood;
          qcheck prop_minbft_random_adversaries;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "unattested splits" `Quick test_ablation_unattested_splits;
          Alcotest.test_case "minbft holds" `Quick test_ablation_minbft_holds;
          qcheck prop_ablation_across_f;
        ] );
      ( "scripted",
        [
          Alcotest.test_case "within budget" `Quick test_scripted_scenario_minbft;
          Alcotest.test_case "over budget waives liveness" `Quick
            test_scripted_over_budget_waives_liveness;
        ] );
      ( "batching",
        [
          Alcotest.test_case "multi-client disjoint rids" `Quick
            test_multi_client_disjoint_rids;
          Alcotest.test_case "amortizes attestations" `Quick
            test_batching_amortizes_attestations;
          Alcotest.test_case "safe under scripted adversary" `Quick
            test_batched_safety_under_scripted_adversary;
          Alcotest.test_case "pbft batched under script" `Quick
            test_pbft_batched_under_scripted_adversary;
        ] );
      ( "replay-monitor",
        [
          Alcotest.test_case "accepts sequential history" `Quick
            test_state_determinism_accepts_sequential;
          Alcotest.test_case "rejects stale result" `Quick
            test_state_determinism_rejects_stale_result;
          Alcotest.test_case "rejects gap" `Quick test_state_determinism_rejects_gap;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "exact results" `Quick test_reductions_exact;
          Alcotest.test_case "crashed set survives rebuilds" `Quick
            test_crashed_survives_rebuilds;
          qcheck prop_reductions_match_reference;
        ] );
      ( "run-lite",
        [
          Alcotest.test_case "agrees with run" `Quick
            test_lite_agrees_with_run;
        ] );
    ]
