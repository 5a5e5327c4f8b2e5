type protocol = Protocol.t = Minbft | Pbft | Ubft

type scenario =
  | Fault_free
  | Crash_leader of int64
  | Silent_replicas
  | Scripted of Thc_sim.Adversary.t
  | Restart_replica of { pid : int; at : int64 }

type setup = {
  protocol : protocol;
  f : int;
  ops : int;
  clients : int;
  batch : int;
  interval : int64;
  delay : Thc_sim.Delay.t;
  scenario : scenario;
  seed : int64;
  network : Thc_network.Model.t option;
  checkpoint_interval : int;
}

module Setup = struct
  type t = setup

  (* The one construction path for setups: every in-tree record literal
     migrated here, so defaults live in exactly one place and adding a
     field never fans out across the callers again.  The defaults are the
     historical literals byte-for-byte (golden corpus locks this). *)
  let make ?(ops = 25) ?(clients = 1) ?(batch = 1) ?(interval = 5_000L)
      ?(delay = Thc_sim.Delay.Uniform (50L, 500L)) ?(scenario = Fault_free)
      ?network ?(checkpoint_interval = 0) ~protocol ~f ~seed () =
    {
      protocol;
      f;
      ops;
      clients;
      batch;
      interval;
      delay;
      scenario;
      seed;
      network;
      checkpoint_interval;
    }
end

type outcome = {
  replicas : int;
  completed : int;
  commits : int;
  latency : Thc_util.Stats.summary;
  lat_hist : Thc_obsv.Metrics.Histogram.t;
  messages : int;
  messages_per_op : float;
  duration_us : int64;
  safety_violations : Smr_spec.violation list;
  liveness_violations : Smr_spec.violation list;
  final_view : int;
  breakdown : (string * int) list;
  sends_by_replica : (int * int) list;
  delivery : Thc_sim.Metrics.delivery_report;
  net : (string * int) list;
  trusted_ops : (string * int) list;
  trusted_per_commit : float;
  trusted_per_request : float;
  latency_by_client : (int * Thc_util.Stats.summary) list;
  metrics : Thc_obsv.Metrics.t;
  events : int;
  durability : Durability.stats;
}

let default_workload ~ops ~seed =
  let rng = Thc_util.Rng.create seed in
  List.init ops (fun i ->
      let key = Printf.sprintf "k%d" (Thc_util.Rng.int rng 16) in
      match Thc_util.Rng.int rng 4 with
      | 0 -> Kv_store.Get key
      | 1 -> Kv_store.Put (key, Printf.sprintf "v%d" i)
      | 2 -> Kv_store.Incr key
      | _ -> Kv_store.Put (key, Printf.sprintf "w%d" i))

let n_clients setup = max 1 setup.clients

(* Per-client seeds stay deterministic while giving each client its own
   operation stream; client 0 keeps the single-client stream of old runs. *)
let client_seed setup c = Int64.add setup.seed (Int64.of_int (7919 * c))

let plan_for setup c =
  List.mapi
    (fun i op -> (Int64.mul (Int64.of_int (i + 1)) setup.interval, op))
    (default_workload ~ops:setup.ops ~seed:(client_seed setup c))

(* Virtual-time horizon: leave room for timeouts and view changes; a
   scripted adversary extends it so the run continues well past the final
   heal and "eventually" clauses can be judged. *)
let horizon setup =
  let workload =
    Int64.add
      (Int64.mul (Int64.of_int (setup.ops + 2)) setup.interval)
      2_000_000L
  in
  match setup.scenario with
  | Scripted script -> max workload (Int64.add script.Thc_sim.Adversary.horizon 2_000_000L)
  | Restart_replica { at; _ } -> max workload (Int64.add at 2_000_000L)
  | Fault_free | Crash_leader _ | Silent_replicas -> workload

let expected_liveness setup =
  (* Under a crashed leader or silent replicas liveness must still hold (f
     tolerated faults); the monitors check all requests completed.  A
     scripted adversary is only obliged to preserve liveness while it stays
     within the fault bound. *)
  match setup.scenario with
  (* A restarting replica counts as one tolerated fault: the f+1 quorums
     among the others keep serving clients while it rejoins. *)
  | Fault_free | Crash_leader _ | Silent_replicas | Restart_replica _ -> true
  | Scripted script ->
    List.length (Thc_sim.Adversary.crashed script) <= setup.f

(* Fold everything the dashboard needs into one registry so a single
   snapshot line in the export carries the whole numeric state of the run. *)
let registry_of ~latencies ~completed ~commits ~messages ~breakdown
    ~sends_by_replica ~(delivery : Thc_sim.Metrics.delivery_report) ~net_rows
    ~trusted_ops =
  let m = Thc_obsv.Metrics.create () in
  let count name v = Thc_obsv.Metrics.add (Thc_obsv.Metrics.counter m name) v in
  let lat = Thc_obsv.Metrics.histogram m "commit.latency_us" in
  List.iter (fun l -> Thc_obsv.Metrics.Histogram.record lat (Int64.of_float l))
    latencies;
  count "client.completed" completed;
  count "commit.count" commits;
  count "net.sent" messages;
  count "net.held_at_end" delivery.held_at_end;
  count "net.in_flight_at_end" delivery.in_flight_at_end;
  List.iter (fun (kind, c) -> count ("msg.kind." ^ kind) c) breakdown;
  List.iter
    (fun (pid, c) -> count (Printf.sprintf "net.sends.p%d" pid) c)
    sends_by_replica;
  List.iter
    (fun (k, v) ->
      match k with
      | "in-flight at end" | "in-flight high-water" | "held at end"
      | "held queue high-water" ->
        (* levels, not monotone counts; hwm folded in by the rows below *)
        ignore v
      | _ -> count ("link." ^ String.map (function ' ' -> '_' | c -> c) k) v)
    net_rows;
  let level name ~last ~hwm =
    let g = Thc_obsv.Metrics.gauge m name in
    Thc_obsv.Metrics.set_gauge g hwm;
    Thc_obsv.Metrics.set_gauge g last
  in
  (match
     ( List.assoc_opt "in-flight at end" net_rows,
       List.assoc_opt "in-flight high-water" net_rows )
   with
  | Some last, Some hwm -> level "link.in_flight" ~last ~hwm
  | _ -> ());
  (match
     ( List.assoc_opt "held at end" net_rows,
       List.assoc_opt "held queue high-water" net_rows )
   with
  | Some last, Some hwm -> level "link.held" ~last ~hwm
  | _ -> ());
  List.iter (fun (op, c) -> count ("hw." ^ op) c) trusted_ops;
  (m, lat)

let finish (type m) setup ~(trace : m Thc_sim.Trace.t) ~replicas
    ~final_view ~classify ~net_stats ~hw ~events ~durability =
  let latencies = Smr_spec.client_latencies trace in
  let completed = List.length latencies in
  let commits = Smr_spec.commits trace ~replicas in
  let messages = Thc_sim.Trace.messages_sent trace in
  let breakdown = Thc_sim.Metrics.kind_counts trace ~classify in
  let sends_by_replica = Thc_sim.Metrics.sends_by_source trace in
  let delivery = Thc_sim.Metrics.delivery_report trace in
  let net = Thc_obsv.Link_stats.rows net_stats in
  let trusted_ops = Thc_obsv.Ledger.rows hw in
  let metrics, lat_hist =
    registry_of ~latencies ~completed ~commits ~messages ~breakdown
      ~sends_by_replica ~delivery ~net_rows:net ~trusted_ops
  in
  (* Durability gauges appear only when checkpointing was requested, so
     legacy runs' metric snapshots (golden corpus) keep their bytes. *)
  if setup.checkpoint_interval > 0 then
    List.iter
      (fun (k, v) ->
        Thc_obsv.Metrics.set_gauge (Thc_obsv.Metrics.gauge metrics k) v)
      (Durability.rows ~prefix:"ckpt" durability);
  {
    replicas;
    completed;
    commits;
    latency = Thc_util.Stats.summarize latencies;
    lat_hist;
    messages;
    messages_per_op =
      (if completed = 0 then 0.0 else float_of_int messages /. float_of_int completed);
    duration_us = trace.Thc_sim.Trace.end_time;
    safety_violations =
      Smr_spec.check_safety trace ~replicas
      @ Smr_spec.check_state_determinism trace ~replicas;
    liveness_violations =
      (if expected_liveness setup then
         Smr_spec.check_liveness trace
           ~expected:
             (Smr_spec.expect_range ~clients:(n_clients setup)
                ~per_client:setup.ops ~first_client_pid:replicas)
       else []);
    final_view;
    breakdown;
    sends_by_replica;
    delivery;
    net;
    trusted_ops;
    trusted_per_commit =
      (if commits = 0 then 0.0
       else float_of_int (Thc_obsv.Ledger.total hw) /. float_of_int commits);
    trusted_per_request =
      (if completed = 0 then 0.0
       else
         float_of_int (Thc_obsv.Ledger.total hw) /. float_of_int completed);
    latency_by_client =
      List.map
        (fun (pid, ls) -> (pid, Thc_util.Stats.summarize ls))
        (Smr_spec.latencies_by_client trace);
    metrics;
    events;
    durability;
  }

let export_of (type m) ~(trace : m Thc_sim.Trace.t) ~outcome =
  let module J = Thc_obsv.Json in
  let b = Buffer.create 65536 in
  Buffer.add_string b
    (Thc_sim.Trace.to_jsonl ~encode_msg:Thc_util.Codec.encode trace);
  let line j =
    Buffer.add_string b (J.to_string j);
    Buffer.add_char b '\n'
  in
  line
    (J.Obj
       [
         ("type", J.Str "metrics");
         ( "snapshot",
           Thc_obsv.Metrics.snapshot_to_json
             (Thc_obsv.Metrics.snapshot outcome.metrics) );
       ]);
  line
    (J.Obj
       [
         ("type", J.Str "ledger");
         ("ops", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) outcome.trusted_ops));
         ("commits", J.Int outcome.commits);
       ]);
  Buffer.contents b

let apply_scenario (type m) setup ~(engine : m Thc_sim.Engine.t) ~replicas =
  match setup.scenario with
  (* the restart itself is wired into the replica by [Cluster.make] *)
  | Fault_free | Restart_replica _ -> ()
  | Crash_leader at -> Thc_sim.Engine.schedule_crash engine ~pid:0 ~at
  | Silent_replicas ->
    for i = 0 to setup.f - 1 do
      Thc_sim.Engine.schedule_crash engine ~pid:(replicas - 1 - i) ~at:0L
    done
  | Scripted script ->
    List.iter
      (fun pid ->
        if pid >= replicas then
          invalid_arg "Harness: scripted adversary may only crash replicas")
      (Thc_sim.Adversary.crashed script);
    Thc_sim.Adversary.install script engine

(* Lower the named network model (if any) onto the engine.  Must run after
   [apply_scenario]: the model schedules re-lowerings at the script's heal
   times, and the engine breaks same-time ties by installation order. *)
let install_network setup ~engine ~replicas =
  match setup.network with
  | None -> ()
  | Some m ->
    let script =
      match setup.scenario with
      | Scripted s -> Some s
      | Fault_free | Crash_leader _ | Silent_replicas | Restart_replica _ ->
        None
    in
    Thc_network.Model.install m engine ~replicas ?script ()

(* Rational client strategies (racing duplicates) ride on the installed
   client behaviors; identity when no model is set. *)
let wrap_net_client setup ~replicas ~clients ~c ~pid behavior =
  match setup.network with
  | None -> behavior
  | Some m ->
    Thc_network.Model.wrap_client m ~replicas ~f:setup.f ~clients
      ~client_index:c ~pid behavior

let cluster ?(spans = Thc_obsv.Span.nop) setup =
  let restart =
    match setup.scenario with
    | Restart_replica { pid; at } -> Some (pid, at)
    | Fault_free | Crash_leader _ | Silent_replicas | Scripted _ -> None
  in
  Cluster.make setup.protocol ~f:setup.f ~batch:setup.batch
    ~checkpoint_interval:setup.checkpoint_interval ~clients:(n_clients setup)
    ?restart ~spans
    (Thc_util.Rng.create setup.seed)

(* The cluster's engine at the requested tracing level: replicas, the
   setup's open-loop clients, its fault schedule and its network model. *)
let engine (type m) ?(spans = Thc_obsv.Span.nop) setup (c : m Cluster.t)
    ~tracing =
  let clients = n_clients setup in
  let engine =
    Cluster.engine c ~seed:setup.seed ~tracing ~spans ~delay:setup.delay
      ~clients:
        (List.init clients (fun i ->
             let pid = c.n + i in
             wrap_net_client setup ~replicas:c.n ~clients ~c:i ~pid
               (c.client ~rid_base:(i * setup.ops)
                  ~ident:(Thc_crypto.Keyring.secret c.keyring ~pid)
                  ~plan:(plan_for setup i))))
  in
  apply_scenario setup ~engine ~replicas:c.n;
  install_network setup ~engine ~replicas:c.n;
  engine

let full_run ?spans setup =
  match cluster ?spans setup with
  | Cluster.Packed c ->
    let engine = engine ?spans setup c ~tracing:Thc_sim.Engine.Full in
    let trace =
      Thc_sim.Engine.run ~until:(horizon setup) ~max_events:20_000_000 engine
    in
    let outcome =
      finish setup ~trace ~replicas:c.n ~final_view:(c.final_view ())
        ~classify:c.classify
        ~net_stats:(Thc_sim.Engine.stats engine)
        ~hw:c.hw
        ~events:(Thc_sim.Engine.events_processed engine)
        ~durability:(c.durability ())
    in
    (outcome, fun () -> export_of ~trace ~outcome)

let run setup = fst (full_run setup)

let run_export setup =
  let outcome, export = full_run setup in
  (outcome, export ())

(* Span-collecting run: a full-fidelity run with a live recorder installed,
   so the caller gets both the ordinary outcome and the per-request causal
   views.  The recorder stamps virtual time only — the trace, metrics and
   RNG draws are byte-identical to [run] on the same setup. *)
let run_spans setup =
  let spans = Thc_obsv.Span.create () in
  let outcome = fst (full_run ~spans setup) in
  (outcome, Thc_obsv.Span.views spans, Thc_obsv.Span.ops_rows spans)

type lite = {
  l_completed : int;
  l_commits : int;
  l_messages : int;
  l_events : int;
  l_duration_us : int64;
}

(* Throughput-mode run: same cluster, same schedule, same RNG draws —
   the engine records only Output/Crashed entries and the reduction
   skips the full metric registry, so nearly all of the wall time is the
   simulation itself.  Used by the S4 engine-throughput benchmarks. *)
let run_lite setup =
  match cluster setup with
  | Cluster.Packed c ->
    let engine = engine setup c ~tracing:Thc_sim.Engine.Outputs_only in
    let trace =
      Thc_sim.Engine.run ~until:(horizon setup) ~max_events:20_000_000 engine
    in
    {
      l_completed = List.length (Smr_spec.client_latencies trace);
      l_commits = Smr_spec.commits trace ~replicas:c.n;
      l_messages = Thc_obsv.Link_stats.sends (Thc_sim.Engine.stats engine);
      l_events = Thc_sim.Engine.events_processed engine;
      l_duration_us = trace.Thc_sim.Trace.end_time;
    }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>replicas=%d completed=%d commits=%d msgs=%d (%.1f/op) dur=%Ldµs \
     view=%d@,latency: %a@,safety: %d violation(s), liveness: %d violation(s)@,\
     trusted ops: %d (%.1f/commit, %.2f/req)@]"
    o.replicas o.completed o.commits o.messages o.messages_per_op o.duration_us
    o.final_view Thc_util.Stats.pp_summary o.latency
    (List.length o.safety_violations)
    (List.length o.liveness_violations)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 o.trusted_ops)
    o.trusted_per_commit o.trusted_per_request;
  (* Durability line only when the discipline is on (something stabilized
     or was truncated): legacy output stays byte-identical at
     checkpoint_interval = 0 (and for PBFT). *)
  if
    o.durability.Durability.stable_upto > 0
    || o.durability.Durability.truncations > 0
  then
    Format.fprintf ppf
      "@.durability: log live %d, hwm %d, stable upto %d, %d truncation(s)"
      o.durability.Durability.live o.durability.Durability.hwm
      o.durability.Durability.stable_upto o.durability.Durability.truncations
