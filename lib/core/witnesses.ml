type t = {
  id : string;
  claim : string;
  run : unit -> bool * string;
}

(* --- shared scaffolding -------------------------------------------------- *)

let seeds = [ 1L; 7L; 42L; 1337L; 99991L ]

let fast = Thc_sim.Delay.Uniform (10L, 400L)

(* A small round application exercising three rounds of chatter. *)
let chatter_app pid ~rounds : Thc_rounds.Round_app.app =
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

let uni_driver_witness ~id ~claim ~driver_of =
  let run () =
    let n = 5 in
    let failures = ref [] in
    List.iter
      (fun seed ->
        let rng = Thc_util.Rng.create seed in
        let keyring = Thc_crypto.Keyring.create rng ~n in
        let net = Thc_sim.Net.create ~n ~default:fast in
        let engine = Thc_sim.Engine.create ~seed ~n ~net () in
        let install = driver_of ~n ~keyring in
        for pid = 0 to n - 1 do
          Thc_sim.Engine.set_behavior engine pid
            (install ~pid (chatter_app pid ~rounds:3))
        done;
        let trace = Thc_sim.Engine.run ~until:5_000_000L engine in
        let violations = Thc_rounds.Directionality.check_unidirectional trace in
        let all_done =
          List.for_all
            (fun pid ->
              Thc_rounds.Directionality.rounds_completed trace ~pid >= 3)
            (List.init n (fun i -> i))
        in
        if violations <> [] || not all_done then
          failures := seed :: !failures)
      seeds;
    match !failures with
    | [] ->
      (true, Printf.sprintf "%d seeds, 3 rounds, no violations" (List.length seeds))
    | bad -> (false, Printf.sprintf "%d failing seed(s)" (List.length bad))
  in
  { id; claim; run }

(* --- the witnesses -------------------------------------------------------- *)

let uni_from_swmr =
  uni_driver_witness ~id:"uni-from-swmr"
    ~claim:"SWMR registers implement unidirectional rounds (paper 3.2)"
    ~driver_of:(fun ~n ~keyring ->
      let registers = Thc_sharedmem.Swmr.log_array ~n in
      fun ~pid app ->
        Thc_rounds.Swmr_rounds.behavior ~registers
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          app)

let uni_from_sticky =
  uni_driver_witness ~id:"uni-from-sticky"
    ~claim:"sticky bits implement unidirectional rounds (paper 3.2)"
    ~driver_of:(fun ~n ~keyring ->
      let board = Thc_rounds.Sticky_rounds.create_board ~n in
      fun ~pid app ->
        Thc_rounds.Sticky_rounds.behavior ~board
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          app)

let uni_from_peats =
  uni_driver_witness ~id:"uni-from-peats"
    ~claim:"PEATS implements unidirectional rounds (paper 3.2)"
    ~driver_of:(fun ~n ~keyring ->
      let space =
        Thc_sharedmem.Peats.create
          ~policy:Thc_sharedmem.Peats.owned_field_policy
      in
      fun ~pid app ->
        Thc_rounds.Peats_rounds.behavior ~space ~n
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          app)

let uni_from_rb_f1 =
  {
    id = "uni-from-rb-f1";
    claim =
      "reliable broadcast implements unidirectional rounds when f=1, n>=3 \
       (paper appendix)";
    run =
      (fun () ->
        let n = 4 in
        let ok = ref true in
        List.iter
          (fun seed ->
            let rng = Thc_util.Rng.create seed in
            let keyring = Thc_crypto.Keyring.create rng ~n in
            let net = Thc_sim.Net.create ~n ~default:fast in
            let engine = Thc_sim.Engine.create ~seed ~n ~net () in
            for pid = 0 to n - 1 do
              Thc_sim.Engine.set_behavior engine pid
                (Thc_rounds.Rb_rounds_f1.behavior ~keyring
                   ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                   (chatter_app pid ~rounds:2))
            done;
            (* Total partition between 0 and 1: the protocol must relay
               their values through the rest. *)
            Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Block;
            Thc_sim.Engine.set_link engine ~src:1 ~dst:0 Thc_sim.Net.Block;
            let trace = Thc_sim.Engine.run ~until:5_000_000L engine in
            if Thc_rounds.Directionality.check_unidirectional trace <> [] then
              ok := false;
            if
              not
                (List.for_all
                   (fun pid ->
                     Thc_rounds.Directionality.rounds_completed trace ~pid >= 2)
                   [ 0; 1; 2; 3 ])
            then ok := false)
          seeds;
        (!ok, "partitioned pair relayed through Q across seeds"))
  }

let srb_from_uni =
  {
    id = "srb-from-uni";
    claim =
      "unidirectional rounds implement SRB with n >= 2t+1 (paper Algorithm 1)";
    run =
      (fun () ->
        let n = 5 and faults = 2 in
        let ok = ref true in
        let detail = ref "" in
        List.iter
          (fun seed ->
            let rng = Thc_util.Rng.create seed in
            let keyring = Thc_crypto.Keyring.create rng ~n in
            let net = Thc_sim.Net.create ~n ~default:fast in
            let engine = Thc_sim.Engine.create ~seed ~n ~net () in
            let registers = Thc_sharedmem.Swmr.log_array ~n in
            let srbs =
              Array.init n (fun pid ->
                  Thc_broadcast.Srb_from_uni.create ~keyring
                    ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                    ~sender:0 ~faults)
            in
            List.iter
              (Thc_broadcast.Srb_from_uni.broadcast srbs.(0))
              [ "alpha"; "beta"; "gamma" ];
            for pid = 0 to n - 1 do
              Thc_sim.Engine.set_behavior engine pid
                (Thc_rounds.Swmr_rounds.behavior ~registers
                   ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                   (Thc_broadcast.Srb_from_uni.app srbs.(pid)))
            done;
            let trace =
              Thc_sim.Engine.run ~until:20_000_000L ~max_events:10_000_000
                engine
            in
            let violations = Thc_broadcast.Srb_spec.check trace ~sender:0 in
            let complete =
              List.for_all
                (fun pid ->
                  List.length
                    (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid)
                  = 3)
                (List.init n (fun i -> i))
            in
            if violations <> [] || not complete then begin
              ok := false;
              detail := Printf.sprintf "seed %Ld failed" seed
            end
            else if Thc_sim.Engine.stop_reason engine <> `Quiescent then begin
              (* Idle register readers park, so a finished run goes quiet
                 long before the horizon; reaching it means they polled. *)
              ok := false;
              detail := Printf.sprintf "seed %Ld ran to the horizon" seed
            end)
          seeds;
        ((!ok), if !ok then "all four SRB properties hold, 3 msgs delivered" else !detail))
  }

let trinc_from_srb =
  {
    id = "trinc-from-srb";
    claim = "SRB implements the TrInc interface (paper Theorem 1)";
    run =
      (fun () ->
        let n = 4 in
        let ok = ref true in
        List.iter
          (fun seed ->
            let hubs = Array.init n (fun sender -> Thc_broadcast.Ideal_srb.hub ~sender) in
            let states =
              Array.init n (fun self ->
                  Thc_broadcast.Trinc_from_srb.create ~hubs ~self)
            in
            let net = Thc_sim.Net.create ~n ~default:fast in
            let engine = Thc_sim.Engine.create ~seed ~n ~net () in
            for pid = 0 to n - 1 do
              let attest_plan =
                if pid = 1 then
                  [ (100L, 5, "m1"); (200L, 9, "m2"); (300L, 9, "rejected") ]
                else []
              in
              Thc_sim.Engine.set_behavior engine pid
                (Thc_broadcast.Trinc_from_srb.behavior states.(pid) ~attest_plan)
            done;
            let trace = Thc_sim.Engine.run ~until:5_000_000L engine in
            (* Recover the attestations p1 produced. *)
            let attestations =
              List.filter_map
                (fun obs ->
                  match (obs : Thc_sim.Obs.t) with
                  | Attested { value; _ } ->
                    Some (Thc_broadcast.Trinc_from_srb.decode_attestation value)
                  | _ -> None)
                (Thc_sim.Trace.outputs_of trace 1)
            in
            (match attestations with
            | [ a1; a2; a3 ] ->
              for pid = 0 to n - 1 do
                (* Property 1: correctly attested values check true. *)
                if not (Thc_broadcast.Trinc_from_srb.check states.(pid) a1 ~id:1)
                then ok := false;
                if not (Thc_broadcast.Trinc_from_srb.check states.(pid) a2 ~id:1)
                then ok := false;
                (* The non-monotone third attest (counter 9 again) is
                   rejected by every checker. *)
                if Thc_broadcast.Trinc_from_srb.check states.(pid) a3 ~id:1 then
                  ok := false;
                (* Property 2: fabricated attestations check false. *)
                let forged =
                  { a1 with Thc_broadcast.Trinc_from_srb.message = "forged" }
                in
                if Thc_broadcast.Trinc_from_srb.check states.(pid) forged ~id:1
                then ok := false
              done
            | _ -> ok := false))
          seeds;
        (!ok, "attest/check round-trips; duplicates and forgeries rejected"))
  }

let srb_from_trinc =
  {
    id = "srb-from-trinc";
    claim = "TrInc implements SRB (trusted-log direction)";
    run =
      (fun () ->
        let n = 4 in
        let ok = ref true in
        List.iter
          (fun seed ->
            let rng = Thc_util.Rng.create seed in
            let world = Thc_hardware.Trinc.create_world rng ~n in
            let net = Thc_sim.Net.create ~n ~default:fast in
            let engine = Thc_sim.Engine.create ~seed ~n ~net () in
            for pid = 0 to n - 1 do
              let trinket = Some (Thc_hardware.Trinc.trinket world ~owner:pid) in
              let st =
                Thc_broadcast.Srb_from_trinc.create ~world ~trinket ~n ~self:pid
              in
              let broadcast_plan =
                if pid = 0 then [ (100L, "x"); (150L, "y"); (200L, "z") ]
                else []
              in
              Thc_sim.Engine.set_behavior engine pid
                (Thc_broadcast.Srb_from_trinc.behavior st ~broadcast_plan)
            done;
            let trace = Thc_sim.Engine.run ~until:5_000_000L engine in
            if Thc_broadcast.Srb_spec.check trace ~sender:0 <> [] then
              ok := false;
            if
              not
                (List.for_all
                   (fun pid ->
                     List.length
                       (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid)
                     = 3)
                   (List.init n (fun i -> i)))
            then ok := false)
          seeds;
        (!ok, "dense attested chains deliver in order at all processes"))
  }

let a2m_from_trinc =
  {
    id = "a2m-from-trinc";
    claim = "TrInc implements the A2M interface (Levin et al. reduction)";
    run =
      (fun () ->
        let rng = Thc_util.Rng.create 5L in
        let world = Thc_hardware.Trinc.create_world rng ~n:2 in
        let device =
          Thc_hardware.A2m_from_trinc.create
            (Thc_hardware.Trinc.trinket world ~owner:0)
        in
        let log1 = Thc_hardware.A2m_from_trinc.create_log device in
        let log2 = Thc_hardware.A2m_from_trinc.create_log device in
        let ok = ref true in
        if Thc_hardware.A2m_from_trinc.append device ~log:log1 "a" <> Some 1 then
          ok := false;
        if Thc_hardware.A2m_from_trinc.append device ~log:log2 "b" <> Some 1 then
          ok := false;
        if Thc_hardware.A2m_from_trinc.append device ~log:log1 "c" <> Some 2 then
          ok := false;
        let chain = Thc_hardware.A2m_from_trinc.chain device in
        (match
           Thc_hardware.A2m_from_trinc.check_chain world ~owner:0 chain
         with
        | Some [ (l1, 1, "a"); (l2, 1, "b"); (l1', 2, "c") ]
          when l1 = log1 && l2 = log2 && l1' = log1 ->
          ()
        | Some _ | None -> ok := false);
        (* Tampering with the chain is detected. *)
        (match chain with
        | first :: rest ->
          if
            Thc_hardware.A2m_from_trinc.check_chain world ~owner:0 rest <> None
          then ok := false;
          if
            Thc_hardware.A2m_from_trinc.check_chain world ~owner:0
              (first :: first :: rest)
            <> None
          then ok := false
        | [] -> ok := false);
        (!ok, "logs reconstruct from the dense chain; tampering detected"))
  }

let trinc_from_enclave =
  {
    id = "trinc-from-enclave";
    claim = "an attested enclave implements TrInc (expressiveness subsumes)";
    run =
      (fun () ->
        let rng = Thc_util.Rng.create 6L in
        let world = Thc_hardware.Enclave.create_world rng ~n:1 in
        (* The enclave program IS the trinket: state = last counter. *)
        let step last (counter, message) =
          if counter > last then (counter, `Attested (last, counter, message))
          else (last, `Rejected)
        in
        let enclave =
          Thc_hardware.Enclave.enclave world ~owner:0 ~init:0 ~step
        in
        let out1, att1 = Thc_hardware.Enclave.invoke enclave (3, "m1") in
        let out2, att2 = Thc_hardware.Enclave.invoke enclave (2, "late") in
        let out3, att3 = Thc_hardware.Enclave.invoke enclave (7, "m2") in
        let ok =
          out1 = `Attested (0, 3, "m1")
          && out2 = `Rejected
          && out3 = `Attested (3, 7, "m2")
          && Thc_hardware.Enclave.check world att1 ~id:0
          && Thc_hardware.Enclave.check world att2 ~id:0
          && Thc_hardware.Enclave.check world att3 ~id:0
          && Thc_hardware.Enclave.check_chain world [ att1; att2; att3 ] ~id:0
          && not (Thc_hardware.Enclave.check_chain world [ att1; att3 ] ~id:0)
        in
        (ok, "monotone-counter program runs attested; replays detected"))
  }

let very_weak_from_uni =
  {
    id = "very-weak-from-uni";
    claim = "unidirectional rounds solve very weak agreement with n > f";
    run =
      (fun () ->
        let n = 4 in
        let ok = ref true in
        List.iter
          (fun seed ->
            (* Common-input run: everyone must decide the input. *)
            let run inputs =
              let rng = Thc_util.Rng.create seed in
              let keyring = Thc_crypto.Keyring.create rng ~n in
              let net = Thc_sim.Net.create ~n ~default:fast in
              let engine = Thc_sim.Engine.create ~seed ~n ~net () in
              let registers = Thc_sharedmem.Swmr.log_array ~n in
              Array.iteri
                (fun pid input ->
                  Thc_sim.Engine.set_behavior engine pid
                    (Thc_rounds.Swmr_rounds.behavior ~registers
                       ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                       (Thc_agreement.Very_weak.app
                          (Thc_agreement.Very_weak.create ~input))))
                inputs;
              Thc_sim.Engine.run ~until:5_000_000L engine
            in
            let common = run (Array.make n "v") in
            let inputs_common = Array.make n (Some "v") in
            if
              Thc_agreement.Agreement_spec.check `Very_weak
                ~inputs:inputs_common common
              <> []
            then ok := false;
            let mixed_inputs = Array.init n (fun i -> Printf.sprintf "v%d" (i mod 2)) in
            let mixed = run mixed_inputs in
            if
              Thc_agreement.Agreement_spec.check `Very_weak
                ~inputs:(Array.map (fun v -> Some v) mixed_inputs)
                mixed
              <> []
            then ok := false)
          seeds;
        (!ok, "common input decides it; mixed inputs stay ⊥-consistent"))
  }

let strong_from_bidirectional =
  {
    id = "strong-from-bidirectional";
    claim =
      "bidirectional rounds solve strong validity agreement with n >= 2f+1 \
       (Dolev-Strong style)";
    run =
      (fun () ->
        let n = 5 and f = 2 in
        let ok = ref true in
        List.iter
          (fun seed ->
            let rng = Thc_util.Rng.create seed in
            let keyring = Thc_crypto.Keyring.create rng ~n in
            let net =
              Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L))
            in
            let engine = Thc_sim.Engine.create ~seed ~n ~net () in
            (* f Byzantine processes stay silent; correct share input "c". *)
            let inputs = Array.init n (fun pid -> if pid < n - f then Some "c" else None) in
            Array.iteri
              (fun pid input ->
                match input with
                | Some input ->
                  Thc_sim.Engine.set_behavior engine pid
                    (Thc_rounds.Sync_rounds.behavior ~period:1_000L
                       (Thc_agreement.Strong_validity.app
                          (Thc_agreement.Strong_validity.create ~keyring
                             ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                             ~n ~f ~input)))
                | None ->
                  Thc_sim.Engine.mark_byzantine engine pid;
                  Thc_sim.Engine.set_behavior engine pid Thc_sim.Engine.no_op)
              inputs;
            let trace = Thc_sim.Engine.run ~until:60_000L engine in
            if
              Thc_agreement.Agreement_spec.check `Strong
                ~inputs:(Array.map (fun i -> i) inputs)
                trace
              <> []
            then ok := false)
          seeds;
        (!ok, "f silent Byzantine; correct processes all decide common input"))
  }

let byzantine_broadcast_dolev_strong =
  {
    id = "bb-dolev-strong";
    claim = "bidirectional rounds solve Byzantine broadcast with f+1 rounds";
    run =
      (fun () ->
        let n = 4 and f = 1 in
        let ok = ref true in
        List.iter
          (fun seed ->
            let rng = Thc_util.Rng.create seed in
            let keyring = Thc_crypto.Keyring.create rng ~n in
            let net =
              Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L))
            in
            let engine = Thc_sim.Engine.create ~seed ~n ~net () in
            let states =
              Array.init n (fun pid ->
                  Thc_broadcast.Dolev_strong.create ~keyring
                    ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                    ~sender:0 ~f
                    ~input:(if pid = 0 then Some "payload" else None))
            in
            Array.iteri
              (fun pid st ->
                Thc_sim.Engine.set_behavior engine pid
                  (Thc_rounds.Sync_rounds.behavior ~period:1_000L
                     (Thc_broadcast.Dolev_strong.app st)))
              states;
            let trace = Thc_sim.Engine.run ~until:30_000L engine in
            List.iter
              (fun pid ->
                match Thc_sim.Trace.decision_of trace pid with
                | Some (Some "payload") -> ()
                | Some _ | None -> ok := false)
              (List.init n (fun i -> i)))
          seeds;
        (!ok, "correct sender's value committed everywhere"))
  }

let minbft_smr =
  {
    id = "minbft-smr";
    claim =
      "trusted counters support BFT replication with n = 2f+1 (MinBFT)";
    run =
      (fun () ->
        let base scenario seed =
          Thc_replication.Harness.Setup.make
            ~protocol:Thc_replication.Harness.Minbft ~f:1 ~ops:12 ~scenario
            ~seed ()
        in
        let healthy o =
          o.Thc_replication.Harness.safety_violations = []
          && o.Thc_replication.Harness.liveness_violations = []
          && o.Thc_replication.Harness.completed = 12
        in
        let ok =
          List.for_all
            (fun seed ->
              healthy
                (Thc_replication.Harness.run
                   (base Thc_replication.Harness.Fault_free seed))
              && healthy
                   (Thc_replication.Harness.run
                      (base (Thc_replication.Harness.Crash_leader 30_000L) seed))
              && healthy
                   (Thc_replication.Harness.run
                      (base Thc_replication.Harness.Silent_replicas seed)))
            [ 3L; 11L ]
        in
        (ok, "fault-free, crash-leader and f-silent runs all safe and live"))
  }

let neb_from_uni =
  {
    id = "neb-from-uni";
    claim =
      "unidirectional rounds solve non-equivocating broadcast with n >= f+1 \
       (paper conjecture section, proof included)";
    run =
      (fun () ->
        let n = 4 in
        let ok = ref true in
        List.iter
          (fun seed ->
            let rng = Thc_util.Rng.create seed in
            let keyring = Thc_crypto.Keyring.create rng ~n in
            let net = Thc_sim.Net.create ~n ~default:fast in
            let engine = Thc_sim.Engine.create ~seed ~n ~net () in
            let registers = Thc_sharedmem.Swmr.log_array ~n in
            let states =
              Array.init n (fun pid ->
                  Thc_broadcast.Neb.create ~keyring
                    ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                    ~sender:0
                    ~input:(if pid = 0 then Some "payload" else None))
            in
            Array.iteri
              (fun pid st ->
                Thc_sim.Engine.set_behavior engine pid
                  (Thc_rounds.Swmr_rounds.behavior ~registers
                     ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                     (Thc_broadcast.Neb.app st)))
              states;
            let _ = Thc_sim.Engine.run ~until:5_000_000L engine in
            Array.iter
              (fun st ->
                match Thc_broadcast.Neb.committed st with
                | Some (Some "payload") -> ()
                | _ -> ok := false)
              states)
          seeds;
        (!ok, "correct sender's value committed by everyone across seeds"))
  }

let rb_bracha =
  {
    id = "rb-bracha";
    claim = "asynchrony solves reliable broadcast with n > 3f (Bracha)";
    run =
      (fun () ->
        let n = 4 and f = 1 in
        let ok = ref true in
        List.iter
          (fun seed ->
            let net = Thc_sim.Net.create ~n ~default:fast in
            let engine = Thc_sim.Engine.create ~seed ~n ~net () in
            for pid = 0 to n - 1 do
              let st =
                Thc_broadcast.Reliable_broadcast.create ~n ~f ~self:pid
                  ~sender:0
              in
              Thc_sim.Engine.set_behavior engine pid
                (Thc_broadcast.Reliable_broadcast.behavior st
                   ~broadcast_plan:[ (50L, "value") ])
            done;
            (* One silent fault: delivery must still complete. *)
            Thc_sim.Engine.mark_byzantine engine (n - 1);
            Thc_sim.Engine.schedule_crash engine ~pid:(n - 1) ~at:0L;
            let trace = Thc_sim.Engine.run ~until:5_000_000L engine in
            for pid = 0 to n - 2 do
              let delivered =
                List.exists
                  (fun obs ->
                    match (obs : Thc_sim.Obs.t) with
                    | Rb_delivered { value = "value"; _ } -> true
                    | _ -> false)
                  (Thc_sim.Trace.outputs_of trace pid)
              in
              if not delivered then ok := false
            done)
          seeds;
        (!ok, "echo/ready quorums deliver despite a silent fault"))
  }

let weak_validity_minbft =
  {
    id = "weak-validity-minbft";
    claim =
      "non-equivocation + signatures solve weak-validity agreement with \
       n = 2f+1 (Clement et al. route, single-shot MinBFT)";
    run =
      (fun () ->
        let ok = ref true in
        List.iter
          (fun seed ->
            let common =
              Thc_agreement.Weak_validity.run ~f:1 ~inputs:[| "v"; "v"; "v" |]
                ~seed ()
            in
            if
              not
                (common.agreement && common.validity && common.termination)
            then ok := false;
            let crash =
              Thc_agreement.Weak_validity.run ~f:1 ~inputs:[| "a"; "b"; "c" |]
                ~seed ~crash_leader:true ()
            in
            if not (crash.agreement && crash.termination) then ok := false)
          [ 3L; 11L; 29L ];
        (!ok, "common-input and crash-leader instances decide consistently"))
  }

let minbft_needs_hardware =
  {
    id = "minbft-needs-hardware";
    claim =
      "ablation: the same split attack breaks f+1 quorums without attested \
       links and fails against them";
    run =
      (fun () ->
        let ok = ref true in
        List.iter
          (fun f ->
            let split =
              Thc_replication.Ablation.equivocation_splits_unattested ~f ()
            in
            if
              split.Thc_replication.Ablation.violations = []
              || split.distinct_ops_at_seq1 < 2
            then ok := false;
            let held =
              Thc_replication.Ablation.equivocation_fails_against_minbft ~f ()
            in
            if
              held.Thc_replication.Ablation.violations <> []
              || held.distinct_ops_at_seq1 > 1
            then ok := false)
          [ 1; 2 ];
        (!ok, "unattested variant splits; attested links hold the line"))
  }

let delta_wait_above_delta_uni =
  {
    id = "delta-uni";
    claim = "delta-synchronous rounds with wait >= delta are unidirectional";
    run =
      (fun () ->
        let n = 4 in
        let delta = 1_000L in
        let ok = ref true in
        List.iter
          (fun seed ->
            let net =
              Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, delta))
            in
            let engine = Thc_sim.Engine.create ~seed ~n ~net () in
            let rng = Thc_util.Rng.create seed in
            for pid = 0 to n - 1 do
              let start_offset =
                Int64.of_int (Thc_util.Rng.int rng 5_000)
              in
              Thc_sim.Engine.set_behavior engine pid
                (Thc_rounds.Delta_rounds.behavior ~wait:delta ~start_offset
                   (chatter_app pid ~rounds:3))
            done;
            let trace = Thc_sim.Engine.run ~until:1_000_000L engine in
            if Thc_rounds.Directionality.check_unidirectional trace <> [] then
              ok := false)
          seeds;
        (!ok, "random start offsets, delays <= delta: no violations"))
  }

let all =
  [
    uni_from_swmr;
    uni_from_sticky;
    uni_from_peats;
    uni_from_rb_f1;
    srb_from_uni;
    trinc_from_srb;
    srb_from_trinc;
    a2m_from_trinc;
    trinc_from_enclave;
    very_weak_from_uni;
    strong_from_bidirectional;
    byzantine_broadcast_dolev_strong;
    minbft_smr;
    neb_from_uni;
    rb_bracha;
    weak_validity_minbft;
    minbft_needs_hardware;
    delta_wait_above_delta_uni;
  ]

let by_id id = List.find_opt (fun w -> String.equal w.id id) all

let run_all () =
  List.map
    (fun w ->
      let passed, detail = w.run () in
      (w, passed, detail))
    all
