(* The traced run: per-layer attribution of job time.

   Each traced job is reassembled from the public constructors exactly as
   its public entry point assembles it (Harness.run, Loadtest.run_point,
   Sweep.run_one's SMR harnesses, Srb_harness.run_uni), with every
   behaviour callback and every ctx function wrapped by a clock and
   allocation stamp.  The post-run analysis calls are then timed one by
   one.  The same job also runs unwrapped at Full and at Outputs_only
   tracing, and once through its public call, and all of them must agree
   (the fidelity check). *)

module E = Thc_sim.Engine
module H = Thc_replication.Harness
module L = Thc_workload.Loadtest
module W = Thc_workload.Workload
module Spec = Thc_replication.Smr_spec
module Ledger = Thc_obsv.Ledger
module LS = Thc_obsv.Link_stats
module Span = Thc_obsv.Span

let words () = int_of_float (Gc.minor_words ())

(* ---- callback and ctx stamps --------------------------------------------- *)

type kind_acc = { mutable k_count : int; mutable k_ns : int }

type tracer = {
  mutable cbs : int;
  mutable cb_ns : int;  (** Inside behaviour callbacks, ctx calls included. *)
  mutable cb_words : int;
  mutable ctx_calls : int;
  mutable ctx_ns : int;  (** Inside send/broadcast/others/set_timer/output. *)
  mutable ctx_words : int;
  mutable own_ns : int;  (** The tracer's own work inside Engine.run. *)
  mutable own_words : int;
  mutable last_useful : int;  (** Callback that emitted the last completion. *)
  mutable handler_ns : int array;  (** Per callback: its time minus ctx time. *)
  kinds : (string, kind_acc) Hashtbl.t;
}

let tracer () =
  {
    cbs = 0;
    cb_ns = 0;
    cb_words = 0;
    ctx_calls = 0;
    ctx_ns = 0;
    ctx_words = 0;
    own_ns = 0;
    own_words = 0;
    last_useful = 0;
    handler_ns = Array.make 4096 0;
    kinds = Hashtbl.create 16;
  }

(* Nothing on the stamped paths allocates (the clock and Gc.minor_words are
   unboxed externals, the accumulators are int fields), so the allocation
   each layer reports is the layer's own. *)
let ctx_done tr t0 w0 =
  tr.ctx_ns <- tr.ctx_ns + (Clock.now_ns () - t0);
  tr.ctx_words <- tr.ctx_words + (words () - w0);
  tr.ctx_calls <- tr.ctx_calls + 1

let wrap_ctx tr (c : 'm E.ctx) : 'm E.ctx =
  {
    c with
    send =
      (fun dst msg ->
        let t0 = Clock.now_ns () and w0 = words () in
        c.send dst msg;
        ctx_done tr t0 w0);
    broadcast =
      (fun msg ->
        let t0 = Clock.now_ns () and w0 = words () in
        c.broadcast msg;
        ctx_done tr t0 w0);
    others =
      (fun msg ->
        let t0 = Clock.now_ns () and w0 = words () in
        c.others msg;
        ctx_done tr t0 w0);
    set_timer =
      (fun ~delay ~tag ->
        let t0 = Clock.now_ns () and w0 = words () in
        c.set_timer ~delay ~tag;
        ctx_done tr t0 w0);
    output =
      (fun obs ->
        (match obs with
        | Thc_sim.Obs.Client_done _ | Thc_sim.Obs.Srb_delivered _ ->
          tr.last_useful <- tr.cbs
        | _ -> ());
        let t0 = Clock.now_ns () and w0 = words () in
        c.output obs;
        ctx_done tr t0 w0);
  }

let cb_done tr kind t0 w0 ctx0 =
  let dt = Clock.now_ns () - t0 in
  tr.cb_ns <- tr.cb_ns + dt;
  tr.cb_words <- tr.cb_words + (words () - w0);
  let t1 = Clock.now_ns () and w1 = words () in
  let handler = dt - (tr.ctx_ns - ctx0) in
  let i = tr.cbs - 1 in
  if i >= Array.length tr.handler_ns then begin
    let a = Array.make (2 * Array.length tr.handler_ns) 0 in
    Array.blit tr.handler_ns 0 a 0 (Array.length tr.handler_ns);
    tr.handler_ns <- a
  end;
  tr.handler_ns.(i) <- handler;
  (match Hashtbl.find tr.kinds kind with
  | k ->
    k.k_count <- k.k_count + 1;
    k.k_ns <- k.k_ns + handler
  | exception Not_found -> Hashtbl.add tr.kinds kind { k_count = 1; k_ns = handler });
  tr.own_ns <- tr.own_ns + (Clock.now_ns () - t1);
  tr.own_words <- tr.own_words + (words () - w1)

(* Message classification (MinBFT decodes its sealed payload to name it)
   is the tracer's work, not the handler's: it is stamped apart. *)
let classified tr classify m =
  let t0 = Clock.now_ns () and w0 = words () in
  let kind = classify m in
  tr.own_ns <- tr.own_ns + (Clock.now_ns () - t0);
  tr.own_words <- tr.own_words + (words () - w0);
  kind

let wrap tr classify (b : 'm E.behavior) : 'm E.behavior =
  let cache = ref None in
  let ctx c =
    match !cache with
    | Some (orig, wrapped) when orig == c -> wrapped
    | _ ->
      let wrapped = wrap_ctx tr c in
      cache := Some (c, wrapped);
      wrapped
  in
  {
    E.init =
      (fun c ->
        let c = ctx c in
        tr.cbs <- tr.cbs + 1;
        let ctx0 = tr.ctx_ns and t0 = Clock.now_ns () and w0 = words () in
        b.init c;
        cb_done tr "init" t0 w0 ctx0);
    on_message =
      (fun c ~src m ->
        let c = ctx c in
        tr.cbs <- tr.cbs + 1;
        let kind = classified tr classify m in
        let ctx0 = tr.ctx_ns and t0 = Clock.now_ns () and w0 = words () in
        b.on_message c ~src m;
        cb_done tr kind t0 w0 ctx0);
    on_timer =
      (fun c tag ->
        let c = ctx c in
        tr.cbs <- tr.cbs + 1;
        let ctx0 = tr.ctx_ns and t0 = Clock.now_ns () and w0 = words () in
        b.on_timer c tag;
        cb_done tr "timer" t0 w0 ctx0);
  }

type wrapper = { wrap : 'm. ('m -> string) -> 'm E.behavior -> 'm E.behavior }

let unwrapped = { wrap = (fun _ b -> b) }

(* ---- reassembly ------------------------------------------------------------ *)

(* Wall time of the assembly steps, by layer. *)
type phases = {
  mutable setup_ns : int;  (** Keys, hardware, replicas, clients, engine. *)
  mutable net_ns : int;  (** Link table and network model. *)
  mutable plan_ns : int;  (** Client request plans. *)
  mutable script_ns : int;  (** Adversary script generation. *)
}

let stamp add f =
  let t0 = Clock.now_ns () in
  let r = f () in
  add (Clock.now_ns () - t0);
  r

let in_setup ph f = stamp (fun dt -> ph.setup_ns <- ph.setup_ns + dt) f
let in_net ph f = stamp (fun dt -> ph.net_ns <- ph.net_ns + dt) f
let in_plan ph f = stamp (fun dt -> ph.plan_ns <- ph.plan_ns + dt) f
let in_script ph f = stamp (fun dt -> ph.script_ns <- ph.script_ns + dt) f

type post = {
  verdict : Work.verdict;
  folds : (string * int) list;  (** Post-run analysis call, ns. *)
  latencies : float list;  (** Virtual-time client latencies, µs. *)
  ledger : (string * int) list;
}

type built =
  | Built : {
      engine : 'm E.t;
      until : int64;
      max_events : int;
      finish : 'm Thc_sim.Trace.t -> post;
    }
      -> built

type mode = { tracing : E.tracing; wrapper : wrapper; live_spans : bool }

let timed_fold folds name f =
  let t0 = Clock.now_ns () in
  let r = f () in
  folds := (name, Clock.now_ns () - t0) :: !folds;
  r

let latency_quantiles latencies =
  let s = Thc_util.Stats.summarize latencies in
  (s.p50, s.p99)

(* One protocol's replicas, client constructor, message classifier and
   trusted-op ledger, built the way Harness and Loadtest build them (with
   checkpointing off, their default).  Only key and hardware generation
   draw from [rng], in the same order as there. *)
type parts =
  | Parts : {
      n : int;
      keyring : Thc_crypto.Keyring.t;
      replicas : 'm E.behavior array;
      client :
        rid_base:int ->
        ident:Thc_crypto.Keyring.secret ->
        plan:(int64 * Thc_replication.Kv_store.op) list ->
        'm E.behavior;
      classify : 'm -> string;
      hw : Ledger.t;
    }
      -> parts

let parts protocol ~f ~batch ~clients ~rng =
  let batch_size = max 1 batch in
  match protocol with
  | H.Minbft ->
    let module P = Thc_replication.Minbft in
    let config = { (P.default_config ~f) with batch_size } in
    let n = config.n in
    let keyring = Thc_crypto.Keyring.create rng ~n:(n + clients) in
    let world = Thc_hardware.Trinc.create_world rng ~n in
    Parts
      {
        n;
        keyring;
        replicas =
          Array.init n (fun self ->
              P.replica
                (P.create_replica ~config ~keyring ~world
                   ~trinket:(Thc_hardware.Trinc.trinket world ~owner:self)
                   ~self));
        client = P.client ~config ~keyring;
        classify = P.classify_msg;
        hw = Thc_hardware.Trinc.ledger world;
      }
  | H.Pbft ->
    let module P = Thc_replication.Pbft in
    let config = { (P.default_config ~f) with batch_size } in
    let n = config.n in
    let keyring = Thc_crypto.Keyring.create rng ~n:(n + clients) in
    Parts
      {
        n;
        keyring;
        replicas =
          Array.init n (fun self ->
              P.replica
                (P.create_replica ~config ~keyring
                   ~ident:(Thc_crypto.Keyring.secret keyring ~pid:self)
                   ~self));
        client = P.client ~config ~keyring;
        classify = P.classify_msg;
        (* PBFT spends no trusted ops. *)
        hw = Ledger.create ();
      }
  | H.Ubft ->
    let module P = Thc_replication.Ubft in
    let config = { (P.default_config ~f) with batch_size } in
    let n = config.n in
    let keyring = Thc_crypto.Keyring.create rng ~n:(n + clients) in
    let registers : P.registers = Thc_sharedmem.Swmr.log_array ~n in
    let hw = Ledger.create () in
    Thc_sharedmem.Swmr.attach_ledger_all registers hw;
    Parts
      {
        n;
        keyring;
        replicas =
          Array.init n (fun self ->
              P.replica
                (P.create_replica ~config ~keyring ~registers
                   ~ident:(Thc_crypto.Keyring.secret keyring ~pid:self)
                   ~self));
        client = P.client ~config ~keyring;
        classify = P.classify_msg;
        hw;
      }

(* The post-run reduction, polymorphic in the protocol's message type. *)
type finisher = {
  finish :
    'm.
    classify:('m -> string) ->
    hw:Ledger.t ->
    replicas:int ->
    events:int ->
    'm Thc_sim.Trace.t ->
    post;
}

(* Engine, replicas and clients, then the fault script and the network
   model, in Harness's order.  A network model's rational strategies wrap
   the clients. *)
let assemble mode ph (Parts p) ~seed ~delay ~spans ~plans ~rids_per_client ~network ~f
    ~script ~until ~finisher =
  let clients = Array.length plans in
  let total = p.n + clients in
  let net =
    in_net ph (fun () -> Thc_sim.Net.create ~n:total ~default:delay)
  in
  let t0 = Clock.now_ns () in
  let engine = E.create ~seed ~tracing:mode.tracing ~spans ~n:total ~net () in
  ph.setup_ns <- ph.setup_ns + (Clock.now_ns () - t0);
  in_setup ph
    (fun () ->
      Array.iteri
        (fun pid b -> E.set_behavior engine pid (mode.wrapper.wrap p.classify b))
        p.replicas;
      Array.iteri
        (fun c plan ->
          let pid = p.n + c in
          let client =
            p.client ~rid_base:(c * rids_per_client)
              ~ident:(Thc_crypto.Keyring.secret p.keyring ~pid)
              ~plan
          in
          let client =
            match network with
            | None -> client
            | Some m ->
              Thc_network.Model.wrap_client m ~replicas:p.n ~f ~clients ~client_index:c
                ~pid client
          in
          E.set_behavior engine pid (mode.wrapper.wrap p.classify client))
        plans;
      Option.iter (fun s -> Thc_sim.Adversary.install s engine) script);
  Option.iter
    (fun m ->
      in_net ph
        (fun () -> Thc_network.Model.install m engine ~replicas:p.n ?script ()))
    network;
  Built
    {
      engine;
      until;
      max_events = 20_000_000;
      finish =
        (fun trace ->
          finisher.finish ~classify:p.classify ~hw:p.hw ~replicas:p.n
            ~events:(E.events_processed engine) trace);
    }

(* Harness.run's post-run reduction, call by call; [explore] turns the
   result into the explorer's verdict the way Sweep.run_one does. *)
let harness_finish (setup : H.setup) ~replicas ~classify ~hw ~events ~explore trace =
  let folds = ref [] in
  let fold name f = timed_fold folds name f in
  let latencies = fold "client_latencies" (fun () -> Spec.client_latencies trace) in
  ignore (fold "commits" (fun () -> Spec.commits trace ~replicas) : int);
  let messages = fold "other" (fun () -> Thc_sim.Trace.messages_sent trace) in
  ignore (fold "kind_counts" (fun () -> Thc_sim.Metrics.kind_counts trace ~classify));
  ignore (fold "other" (fun () -> Thc_sim.Metrics.sends_by_source trace));
  ignore (fold "delivery_report" (fun () -> Thc_sim.Metrics.delivery_report trace));
  let ledger = fold "other" (fun () -> Ledger.rows hw) in
  let safety =
    fold "check_safety" (fun () -> Spec.check_safety trace ~replicas)
    @ fold "check_state_determinism" (fun () -> Spec.check_state_determinism trace ~replicas)
  in
  let liveness_expected =
    match setup.scenario with
    | H.Scripted s -> List.length (Thc_sim.Adversary.crashed s) <= setup.f
    | _ -> true
  in
  let liveness =
    if liveness_expected then
      fold "check_liveness" (fun () ->
          Spec.check_liveness trace
            ~expected:
              (Spec.expect_range ~clients:(max 1 setup.clients) ~per_client:setup.ops
                 ~first_client_pid:replicas))
    else []
  in
  ignore (fold "latencies_by_client" (fun () -> Spec.latencies_by_client trace));
  let p50, p99 = fold "other" (fun () -> latency_quantiles latencies) in
  let end_us = trace.Thc_sim.Trace.end_time in
  let verdict =
    match explore with
    | Some (h, seed) ->
      Work.explore_verdict h ~seed
        {
          Thc_check.Harness.verdict =
            Thc_check.Monitor.verdict (Thc_check.Monitor.of_smr (safety @ liveness));
          messages;
          duration_us = end_us;
        }
    | None ->
      Work.checked ~who:(Thc_replication.Protocol.to_string setup.protocol)
        (Work.passed ~completed:(List.length latencies) ~messages ~end_us ~events
           ~lat_p50:p50 ~lat_p99:p99)
        ~safety:(List.length safety) ~liveness:(List.length liveness)
        ~offered:(setup.ops * max 1 setup.clients)
  in
  { verdict; folds = !folds; latencies; ledger }

(* Harness.with_minbft / with_pbft / with_ubft and its full run. *)
let harness_build mode ph ?explore (setup : H.setup) =
  if setup.checkpoint_interval <> 0 then
    invalid_arg "perfbench: runs with checkpointing are not reassembled";
  let script =
    match setup.scenario with
    | H.Fault_free -> None
    | H.Scripted s -> Some s
    | _ -> invalid_arg "perfbench: only fault-free and scripted runs are reassembled"
  in
  let clients = max 1 setup.clients in
  let cluster =
    in_setup ph
      (fun () ->
        parts setup.protocol ~f:setup.f ~batch:setup.batch ~clients
          ~rng:(Thc_util.Rng.create setup.seed))
  in
  let plans =
    in_plan ph
      (fun () ->
        Array.init clients (fun c ->
            List.mapi
              (fun i op -> (Int64.mul (Int64.of_int (i + 1)) setup.interval, op))
              (H.default_workload ~ops:setup.ops
                 ~seed:(Int64.add setup.seed (Int64.of_int (7919 * c))))))
  in
  let workload =
    Int64.add (Int64.mul (Int64.of_int (setup.ops + 2)) setup.interval) 2_000_000L
  in
  assemble mode ph cluster ~seed:setup.seed ~delay:setup.delay ~spans:Span.nop ~plans
    ~rids_per_client:setup.ops ~network:setup.network ~f:setup.f ~script
    ~until:
      (match script with
      | Some s -> max workload (Int64.add s.Thc_sim.Adversary.horizon 2_000_000L)
      | None -> workload)
    ~finisher:
      {
        finish =
          (fun ~classify ~hw ~replicas ~events trace ->
            harness_finish setup ~replicas ~classify ~hw ~events ~explore trace);
      }

(* Loadtest's post-run reduction, span summary included. *)
let point_finish (p : L.point) ~replicas ~hw ~spans trace =
  let folds = ref [] in
  let fold name f = timed_fold folds name f in
  let latencies = fold "client_latencies" (fun () -> Spec.client_latencies trace) in
  ignore (fold "commits" (fun () -> Spec.commits trace ~replicas) : int);
  ignore
    (fold "other" (fun () ->
         Thc_sim.Trace.outputs_matching trace (fun _ obs ->
             match obs with Thc_sim.Obs.Client_done _ -> Some () | _ -> None)));
  let ledger = fold "other" (fun () -> Ledger.rows hw) in
  let messages = fold "other" (fun () -> Thc_sim.Trace.messages_sent trace) in
  let safety =
    fold "check_safety" (fun () -> Spec.check_safety trace ~replicas)
    @ fold "check_state_determinism" (fun () -> Spec.check_state_determinism trace ~replicas)
  in
  ignore (fold "summarize" (fun () -> Span.summarize (Span.views spans)));
  let p50, p99 = fold "other" (fun () -> latency_quantiles latencies) in
  let verdict =
    Work.checked ~who:(L.protocol_name p.protocol)
      (Work.passed ~completed:(List.length latencies) ~messages
         ~end_us:trace.Thc_sim.Trace.end_time ~events:(-1) ~lat_p50:p50 ~lat_p99:p99)
      ~safety:(List.length safety) ~liveness:0 ~offered:(W.total_requests p.spec)
  in
  { verdict; folds = !folds; latencies; ledger }

(* Loadtest.run_minbft / run_pbft / run_ubft.  [live_spans] false swaps
   the recorder for Span.nop, to price span recording. *)
let point_build mode ph (p : L.point) =
  let clients = p.spec.W.clients in
  let spans = if mode.live_spans then Span.create () else Span.nop in
  let (Parts parts as cluster) =
    in_setup ph
      (fun () ->
        parts p.protocol ~f:p.f ~batch:p.batch ~clients ~rng:(Thc_util.Rng.create p.seed))
  in
  if mode.live_spans then Ledger.set_observer parts.hw (Span.attribute spans);
  let plans =
    in_plan ph
      (fun () ->
        Array.init clients (fun c ->
            match W.plan p.spec ~seed:p.seed ~client:c with
            | Some plan -> plan
            | None -> invalid_arg "perfbench: closed-loop points are not reassembled"))
  in
  assemble mode ph cluster ~seed:p.seed ~delay:p.delay ~spans ~plans
    ~rids_per_client:p.spec.W.requests_per_client ~network:p.network ~f:p.f ~script:None
    ~until:(W.horizon_us p.spec)
    ~finisher:
      {
        finish =
          (fun ~classify:_ ~hw ~replicas ~events:_ trace ->
            point_finish p ~replicas ~hw ~spans trace);
      }

(* Srb_harness.run_uni, step by step.  A ledger is attached to the
   registers to count register operations; ledgers are passive, so the
   run is unchanged. *)
let srb_build mode ph ~seed =
  let script =
    in_script ph
      (fun () -> Thc_check.Sweep.script_for (Lazy.force Work.srb_harness) ~seed ())
  in
  let n = 5 and faults = 2 in
  let keyring = in_setup ph (fun () -> Thc_crypto.Keyring.create (Thc_util.Rng.create seed) ~n) in
  let net =
    in_net ph
      (fun () -> Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 400L)))
  in
  let hw = Ledger.create () in
  let (engine : unit E.t) =
    in_setup ph (fun () ->
        let engine = E.create ~seed ~tracing:mode.tracing ~n ~net () in
        let registers = Thc_sharedmem.Swmr.log_array ~n in
        Thc_sharedmem.Swmr.attach_ledger_all registers hw;
        let srbs =
          Array.init n (fun pid ->
              Thc_broadcast.Srb_from_uni.create ~keyring
                ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                ~sender:0 ~faults)
        in
        for i = 1 to Work.srb_values do
          Thc_broadcast.Srb_from_uni.broadcast srbs.(0) (Printf.sprintf "v%d" i)
        done;
        for pid = 0 to n - 1 do
          E.set_behavior engine pid
            (mode.wrapper.wrap
               (fun () -> "message")
               (Thc_rounds.Swmr_rounds.behavior ~registers
                  ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                  (Thc_broadcast.Srb_from_uni.app srbs.(pid))))
        done;
        Thc_sim.Adversary.install script engine;
        engine)
  in
  let finish trace =
    let folds = ref [] in
    let fold name f = timed_fold folds name f in
    let delivered =
      fold "other" (fun () ->
          List.fold_left
            (fun acc pid ->
              acc + List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid))
            0
            (Thc_sim.Trace.correct_pids trace))
    in
    let violations = fold "srb_check" (fun () -> Thc_broadcast.Srb_spec.check trace ~sender:0) in
    let messages = fold "other" (fun () -> Thc_sim.Trace.messages_sent trace) in
    {
      verdict =
        Work.srb_verdict ~seed
          { violations; delivered; messages; duration_us = trace.Thc_sim.Trace.end_time };
      folds = !folds;
      latencies = [];
      ledger = Ledger.rows hw;
    }
  in
  Built
    {
      engine;
      until = max 600_000L (Int64.add script.horizon 300_000L);
      max_events = 10_000_000;
      finish;
    }

(* The explorer's SMR harnesses are Harness.run on a seeded script under
   the geo3 model; its attack harnesses are not reassembled. *)
let reassemble mode ph = function
  | Work.Smr s -> Some (harness_build mode ph s)
  | Work.Point p -> Some (point_build mode ph p)
  | Work.Explore { h; seed } ->
    Option.map
      (fun protocol ->
        let script =
          in_script ph
            (fun () -> Thc_check.Sweep.script_for h ~seed ())
        in
        harness_build mode ph ~explore:(h, seed)
          (H.Setup.make ~protocol ~f:1 ~ops:6 ~scenario:(H.Scripted script) ~seed
             ~network:Work.geo3 ()))
      (Thc_replication.Protocol.of_string h.name)
  | Work.Srb { seed; _ } -> Some (srb_build mode ph ~seed)

(* ---- one traced job ---------------------------------------------------------- *)

type engine_run = {
  run_ns : int;
  run_words : int;
  events : int;
  sends : int;
  dropped : int;
  held_hwm : int;
  in_flight_hwm : int;
  entries : int;
  end_us : int64;
}

let execute (Built b) =
  let w0 = words () and t0 = Clock.now_ns () in
  let trace = E.run ~until:b.until ~max_events:b.max_events b.engine in
  let run_ns = Clock.now_ns () - t0 and run_words = words () - w0 in
  let st = E.stats b.engine in
  ( {
      run_ns;
      run_words;
      events = E.events_processed b.engine;
      sends = LS.sends st;
      dropped = LS.dropped st;
      held_hwm = LS.held_hwm st;
      in_flight_hwm = LS.in_flight_hwm st;
      entries = List.length trace.Thc_sim.Trace.entries;
      end_us = trace.Thc_sim.Trace.end_time;
    },
    fun () -> b.finish trace )

type traced_job = {
  label : string;
  public : Work.job;
  traced_ns : int;  (** The whole wrapped reassembly, post-run calls included. *)
  ph : phases;
  tr : tracer;
  run : engine_run;
  post : post;
  trace_ns : int;  (** Engine.run at Full minus at Outputs_only. *)
  span_ns : int;  (** Engine.run with a live span recorder minus with nop. *)
  mismatches : string list;
}

let label = function
  | Work.Smr s -> Thc_replication.Protocol.to_string s.protocol
  | Work.Point p -> L.protocol_name p.protocol
  | Work.Explore { h; _ } -> h.name
  | Work.Srb _ -> "srb-uni"

let trace_job input (public : Work.job) =
  let ph = { setup_ns = 0; net_ns = 0; plan_ns = 0; script_ns = 0 } in
  let tr = tracer () in
  let traced_mode = { tracing = E.Full; wrapper = { wrap = (fun c b -> wrap tr c b) }; live_spans = true } in
  let t0 = Clock.now_ns () in
  match reassemble traced_mode ph input with
  | None -> None
  | Some built ->
    let run, finish = execute built in
    let post = finish () in
    let traced_ns = Clock.now_ns () - t0 in
    let plain tracing live_spans =
      let scratch = { setup_ns = 0; net_ns = 0; plan_ns = 0; script_ns = 0 } in
      match reassemble { tracing; wrapper = unwrapped; live_spans } scratch input with
      | Some b -> fst (execute b)
      | None -> assert false
    in
    let full = plain E.Full true and outputs = plain E.Outputs_only true in
    let span_ns =
      match input with
      | Work.Point _ -> full.run_ns - (plain E.Full false).run_ns
      | _ -> 0
    in
    let check what ok = if ok then None else Some (label input ^ ": " ^ what) in
    let mismatches =
      List.filter_map Fun.id
        [
          check "verdict differs from the public call" (post.verdict = public.verdict);
          check "events differ from the unwrapped run" (run.events = full.events);
          check "events differ at Outputs_only tracing" (full.events = outputs.events);
          check "messages differ from the unwrapped run" (run.sends = full.sends);
          check "virtual end time differs from the unwrapped run"
            (run.end_us = full.end_us && full.end_us = outputs.end_us);
          check "trace differs from the unwrapped run" (run.entries = full.entries);
        ]
    in
    Some
      {
        label = label input;
        public;
        traced_ns;
        ph;
        tr;
        run;
        post;
        trace_ns = full.run_ns - outputs.run_ns;
        span_ns;
        mismatches;
      }

(* ---- the run ----------------------------------------------------------------- *)

(* Jobs traced per workload: enough for every job kind to appear. *)
let traced_inputs w ~seed =
  let pass0 = Work.pass_inputs w ~seed ~pass:0 in
  match w with
  | Work.Smr_long -> pass0 @ Work.pass_inputs w ~seed ~pass:1
  | Work.Loadtest_mix | Work.Srb_rounds -> pass0
  | Work.Explore_geo3 -> List.filteri (fun i _ -> i < 30) pass0

let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ms ns = float_of_int ns /. 1e6

let growth tr =
  let active = if tr.last_useful > 0 then tr.last_useful else tr.cbs in
  let fifth = active / 5 in
  if fifth = 0 then 0.0
  else
    let sum lo =
      let s = ref 0 in
      for i = lo to lo + fifth - 1 do
        s := !s + tr.handler_ns.(i)
      done;
      float_of_int !s
    in
    Stats.ratio (sum (active - fifth)) (sum 0)

let fold_names =
  [
    "commits"; "check_safety"; "check_state_determinism"; "check_liveness";
    "client_latencies"; "latencies_by_client"; "kind_counts"; "delivery_report";
    "srb_check"; "other";
  ]

let fold_ns jobs name =
  isum (fun j -> isum (fun (n, ns) -> if n = name then ns else 0) j.post.folds) jobs

(* Ledger label -> microbenchmarked cost. *)
let predicted_ns (costs : Micro.costs) ledger =
  fsum
    (fun (label, count) ->
      let per =
        match label with
        | "trinc.attest" -> costs.attest_ns
        | "trinc.check" -> costs.check_ns
        | "swmr.append" | "swmr.write" -> costs.append_ns
        | "swmr.read" -> costs.read_ns
        | _ -> 0.0
      in
      per *. float_of_int count)
    ledger

let pool_metrics w inputs =
  match w with
  | Work.Explore_geo3 ->
    let t0 = Unix.gettimeofday () in
    let results, stats = Thc_exec.Pool.map_stats ~jobs:Work.pool_jobs Work.timed inputs in
    let waits =
      List.filter_map
        (function Ok (j : Work.job) -> Some ((j.start -. t0) *. 1e3) | Error _ -> None)
        results
    in
    let busiest = Array.fold_left max 0L stats.busy_us in
    ( Thc_exec.Pool.utilization stats,
      Stats.median waits,
      Int64.to_float (Int64.sub stats.wall_us busiest) /. 1e3 )
  | Work.Smr_long | Work.Loadtest_mix | Work.Srb_rounds -> (0.0, 0.0, 0.0)

let run w ~seed =
  let inputs = traced_inputs w ~seed in
  (* Two untraced passes over the same inputs, run as the end-to-end run
     runs them: the second is the self-test (every deterministic counter
     must repeat exactly), the first is the reference the traced
     reassembly must reproduce.  Each traced job, too, runs in a child
     forked for it, so traced and untraced jobs start from the same heap. *)
  let pass_a = Work.run_pass w inputs in
  let pass_b = Work.run_pass w inputs in
  let self_test =
    List.concat
      (List.mapi
         (fun i ((a : Work.job), (b : Work.job)) ->
           (if a.verdict = b.verdict then []
            else [ Printf.sprintf "job %d: verdict or counters differ between passes" i ])
           @
           if a.words = b.words then []
           else [ Printf.sprintf "job %d: minor words differ between passes (%.0f vs %.0f)" i a.words b.words ])
         (List.combine pass_a pass_b))
  in
  let traced = List.map2 (fun i p -> Work.forked (fun () -> trace_job i p)) inputs pass_a in
  let died = List.length (List.filter Option.is_none traced) in
  let jobs = List.filter_map Fun.id (List.filter_map Fun.id traced) in
  let depth = List.fold_left (fun acc j -> max acc (j.run.in_flight_hwm + 8)) 16 jobs in
  let costs = Micro.run ~queue_depth:depth in
  let utilization, wait_p50, overhead = pool_metrics w (Work.pass_inputs w ~seed ~pass:0) in
  let n = float_of_int (max 1 (List.length jobs)) in
  let per_job f = fsum f jobs /. n in
  let cb_ns = isum (fun j -> j.tr.cb_ns) jobs and ctx_ns = isum (fun j -> j.tr.ctx_ns) jobs in
  let own_ns = isum (fun j -> j.tr.own_ns) jobs in
  let run_ns = isum (fun j -> j.run.run_ns) jobs in
  let events = isum (fun j -> j.run.events) jobs in
  let cbs = isum (fun j -> j.tr.cbs) jobs in
  let sim_self_ns = run_ns - cb_ns - own_ns in
  let handler_ns = cb_ns - ctx_ns in
  let engine_words =
    isum (fun j -> j.run.run_words - j.tr.cb_words + j.tr.ctx_words - j.tr.own_words) jobs
  in
  let requests = isum (fun j -> List.length j.post.latencies) jobs in
  (* Client requests, or SRB deliveries on srb-rounds. *)
  let served =
    isum (fun j -> max (List.length j.post.latencies) j.post.verdict.completed) jobs
  in
  let sends = isum (fun j -> j.run.sends) jobs in
  let ledger_total = isum (fun j -> isum snd j.post.ledger) jobs in
  let spec_ns = List.fold_left (fun acc name -> acc + fold_ns jobs name) 0 fold_names in
  let summarize_ns = fold_ns jobs "summarize" in
  let traced_ns = isum (fun j -> j.traced_ns) jobs in
  let public_ms = fsum (fun j -> j.public.ms) jobs in
  let client_ms =
    fsum (fun j -> if j.post.latencies = [] then 0.0 else j.public.ms) jobs
  in
  let layer_ns j =
    j.ph.setup_ns + j.ph.net_ns + j.ph.plan_ns + j.ph.script_ns + j.run.run_ns - j.tr.own_ns
  in
  let unattributed_ns = traced_ns - isum layer_ns jobs - spec_ns - summarize_ns in
  let kinds =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun j ->
        Hashtbl.iter
          (fun k acc ->
            let c, t = Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0) in
            Hashtbl.replace tbl k (c + acc.k_count, t + acc.k_ns))
          j.tr.kinds)
      jobs;
    List.sort
      (fun (k1, (c1, _)) (k2, (c2, _)) -> match compare c2 c1 with 0 -> compare k1 k2 | c -> c)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let kind_ns =
    Array.init 3 (fun i ->
        match List.nth_opt kinds i with
        | Some (k, (c, t)) ->
          Printf.printf "replication.kind%d = %s (%d callbacks)\n" (i + 1) k c;
          Stats.ratio (float_of_int t) (float_of_int c)
        | None -> 0.0)
  in
  let latencies = List.concat_map (fun j -> j.post.latencies) jobs in
  let lat = Thc_util.Stats.summarize latencies in
  let spec_ms name = ms (fold_ns jobs name) /. n in
  let mismatches =
    List.init died (fun _ -> "traced job process died")
    @ List.concat_map (fun j -> j.mismatches) jobs
  in
  let failures = List.filter_map (fun (j : Work.job) -> j.verdict.fail) (pass_a @ pass_b) in
  List.iter (Printf.printf "fidelity: %s\n") mismatches;
  List.iter (Printf.printf "self-test: %s\n") self_test;
  List.iter (Printf.printf "failed job: %s\n") failures;
  Printf.printf "traced %d of %d jobs (%s)\n" (List.length jobs) (List.length inputs)
    (String.concat " " (List.map (fun j -> j.label) jobs));
  let layers =
    [
      ("sim.self_ms", "ms", ms sim_self_ns /. n);
      ("sim.ctx_ms", "ms", ms ctx_ns /. n);
      ("sim.events_per_job", "count", float_of_int events /. n);
      ( "sim.idle_event_frac",
        "ratio",
        Stats.ratio (float_of_int (isum (fun j -> j.tr.cbs - j.tr.last_useful) jobs)) (float_of_int cbs) );
      ("sim.ns_per_event", "ns", Stats.ratio (float_of_int (sim_self_ns + ctx_ns)) (float_of_int events));
      ("sim.words_per_event", "words", Stats.ratio (float_of_int engine_words) (float_of_int events));
      ( "sim.ctx_ns_per_call",
        "ns",
        Stats.ratio (float_of_int ctx_ns) (float_of_int (isum (fun j -> j.tr.ctx_calls) jobs)) );
      ("sim.queue_ns", "ns", costs.queue_ns);
      ("network.install_us", "us", float_of_int (isum (fun j -> j.ph.net_ns) jobs) /. 1e3 /. n);
      ("network.msgs_per_job", "count", float_of_int sends /. n);
      ("network.dropped_per_job", "count", per_job (fun j -> float_of_int j.run.dropped));
      ("network.held_hwm", "count", float_of_int (List.fold_left (fun acc j -> max acc j.run.held_hwm) 0 jobs));
      ("replication.self_ms", "ms", ms handler_ns /. n);
      ("replication.ns_per_event", "ns", Stats.ratio (float_of_int handler_ns) (float_of_int cbs));
      ("replication.growth", "ratio", per_job (fun j -> growth j.tr));
      ("replication.kind1.ns_per_msg", "ns", kind_ns.(0));
      ("replication.kind2.ns_per_msg", "ns", kind_ns.(1));
      ("replication.kind3.ns_per_msg", "ns", kind_ns.(2));
      ("replication.msgs_per_req", "count", Stats.ratio (float_of_int sends) (float_of_int requests));
      ("replication.setup_ms", "ms", ms (isum (fun j -> j.ph.setup_ns) jobs) /. n);
      ("hardware.trusted_per_req", "count", Stats.ratio (float_of_int ledger_total) (float_of_int served));
      ("hardware.attest_ns", "ns", costs.attest_ns);
      ("hardware.check_ns", "ns", costs.check_ns);
      ("crypto.sign_ns", "ns", costs.sign_ns);
      ("crypto.verify_ns", "ns", costs.verify_ns);
      ("sharedmem.append_ns", "ns", costs.append_ns);
      ("sharedmem.read_ns", "ns", costs.read_ns);
      ("hardware.predicted_ms", "ms", per_job (fun j -> predicted_ns costs j.post.ledger) /. 1e6);
      ("obsv.entries_per_event", "ratio", Stats.ratio (float_of_int (isum (fun j -> j.run.entries) jobs)) (float_of_int events));
      ("obsv.trace_ms", "ms", ms (isum (fun j -> j.trace_ns) jobs) /. n);
      ("obsv.span_ms", "ms", ms (isum (fun j -> j.span_ns) jobs) /. n);
      ("obsv.summarize_ms", "ms", ms summarize_ns /. n);
    ]
    @ List.map (fun name -> ("spec." ^ name ^ "_ms", "ms", spec_ms name)) fold_names
    @ [
        ("spec.share", "ratio", Stats.ratio (float_of_int spec_ns) (float_of_int traced_ns));
        ("exec.utilization", "ratio", utilization);
        ("exec.wait_ms_p50", "ms", wait_p50);
        ("exec.overhead_ms", "ms", overhead);
        ("check.script_us", "us", float_of_int (isum (fun j -> j.ph.script_ns) jobs) /. 1e3 /. n);
        ("workload.plan_ms", "ms", ms (isum (fun j -> j.ph.plan_ns) jobs) /. n);
        ("client.req_per_s", "1/s", Stats.ratio (float_of_int requests) (client_ms /. 1e3));
        ("client.sim_p50_us", "us", lat.p50);
        ("client.sim_p99_us", "us", lat.p99);
        ("unattributed_ms", "ms", ms unattributed_ns /. n);
        ("traced_overhead", "ratio", Stats.ratio (ms traced_ns) public_ms);
      ]
  in
  ( mismatches = [] && self_test = [] && jobs <> [],
    List.length pass_a + List.length pass_b,
    List.length failures,
    layers )
