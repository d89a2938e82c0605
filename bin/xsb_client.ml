(* The command-line client: one connection, a sequence of operations in
   command-line order (consults first, then asserts, then goals), with
   exit codes scripts can branch on: 0 ok, 1 error, 2 timeout,
   3 overloaded, 4 readonly (mutation refused by a standby or a
   degraded primary). *)

let exit_error = 1
let exit_timeout = 2
let exit_overloaded = 3
let exit_readonly = 4

let code_exit = function
  | Xsb_server.Protocol.Timeout -> exit_timeout
  | Xsb_server.Protocol.Overloaded -> exit_overloaded
  | Xsb_server.Protocol.Readonly -> exit_readonly
  | _ -> exit_error

let main host port endpoints consults fast_loads goals asserts limit timeout_ms max_steps stats
    abolish ping sync promote role follow_primary metrics retries backoff_ms max_elapsed_ms =
  let open Xsb_server in
  let retry =
    Client.retry ~retries ~backoff_ms:(float_of_int backoff_ms)
      ~max_elapsed_ms:(float_of_int max_elapsed_ms) ()
  in
  let run client =
    let worst = ref 0 in
    let note code = worst := max !worst code in
    let simple what = function
      | Ok payload -> if payload <> "" then Fmt.pr "%s@." payload
      | Error { Client.code; message } ->
          Fmt.epr "%s: %s: %s@." what (Protocol.err_code_name code) message;
          note (code_exit code)
    in
    if promote then simple "promote" (Client.promote client);
    if role then simple "role" (Client.role_payload client);
    if ping then simple "ping" (Client.ping_retry ~retry ~follow_primary client);
    List.iter
      (fun path ->
        let text = In_channel.with_open_bin path In_channel.input_all in
        simple ("consult " ^ path) (Client.consult client text))
      consults;
    List.iter
      (fun path ->
        let text = In_channel.with_open_bin path In_channel.input_all in
        simple ("fast-load " ^ path) (Client.consult ~fmt:Protocol.Fast client text))
      fast_loads;
    List.iter (fun clause -> simple ("assert " ^ clause) (Client.assert_ client clause)) asserts;
    List.iter
      (fun goal ->
        match
          Client.query_retry ~retry ~follow_primary ?limit ?timeout_ms ?max_steps client goal
        with
        | Client.Rows { rows; truncated } ->
            List.iter (fun row -> Fmt.pr "%s@." row) rows;
            Fmt.pr "%s (%d solution%s%s)@."
              (if rows = [] then "no" else "yes")
              (List.length rows)
              (if List.length rows = 1 then "" else "s")
              (if truncated then ", truncated" else "")
        | Client.Query_timeout rows ->
            List.iter (fun row -> Fmt.pr "%s@." row) rows;
            Fmt.epr "timeout after %d answer%s@." (List.length rows)
              (if List.length rows = 1 then "" else "s");
            note exit_timeout
        | Client.Query_error { code; message } ->
            Fmt.epr "query %s: %s: %s@." goal (Protocol.err_code_name code) message;
            note (code_exit code))
      goals;
    if abolish then simple "abolish" (Client.abolish client);
    if sync then simple "sync" (Client.sync client);
    if stats then simple "statistics" (Client.statistics_retry ~retry ~follow_primary client);
    (if metrics then
       match Client.metrics_retry ~retry ~follow_primary client with
       | Error { Client.code; message } ->
           Fmt.epr "metrics: %s: %s@." (Protocol.err_code_name code) message;
           note (code_exit code)
       | Ok text -> (
           (* reject a malformed exposition here, so scripts (and
              the CI smoke job) can trust a zero exit *)
           match Xsb.Metrics.Exposition.validate text with
           | Ok _ -> Fmt.pr "%s" text
           | Error why ->
               Fmt.pr "%s" text;
               Fmt.epr "metrics: invalid exposition: %s@." why;
               note exit_error));
    !worst
  in
  let connect_and_run (h, p) =
    match Client.connect_with_retry ~retry ~host:h p with
    | exception Unix.Unix_error (err, _, _) -> Error (h, p, Unix.error_message err)
    | Error reason -> Error (h, p, reason)
    | Ok client -> Ok (Fun.protect ~finally:(fun () -> Client.close client) (fun () -> run client))
  in
  (* With --endpoints the target is discovered, not fixed: probe every
     endpoint's ROLE and dial the writable primary on the highest
     epoch. A READONLY outcome (or a dead node) means the topology
     changed under us -- re-discover and re-run, up to --retries times,
     so a client rides out a failover instead of reporting it. *)
  let discover fallback =
    match Client.discover_primary endpoints with Some (hp, _) -> hp | None -> fallback
  in
  let rec go attempt target =
    let redial () =
      Unix.sleepf (float_of_int backoff_ms /. 1000.0 *. (2.0 ** float_of_int attempt));
      go (attempt + 1) (discover target)
    in
    match connect_and_run target with
    | Error (h, p, reason) ->
        if endpoints <> [] && attempt < retries then redial ()
        else begin
          Fmt.epr "xsb_client: cannot connect to %s:%d: %s@." h p reason;
          exit_error
        end
    | Ok worst when worst = exit_readonly && endpoints <> [] && attempt < retries ->
        Fmt.epr "xsb_client: %s:%d is read-only; re-discovering the primary@." (fst target)
          (snd target);
        redial ()
    | Ok worst -> worst
  in
  go 0 (if endpoints = [] then (host, port) else discover (host, port))

open Cmdliner

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")

let port = Arg.(value & opt int 4994 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")

let hostport_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Xsb_repl.Role.endpoint_of_string s) in
  Arg.conv (parse, fun ppf ep -> Format.pp_print_string ppf (Xsb_repl.Role.endpoint_to_string ep))

let endpoints =
  Arg.(
    value
    & opt (list hostport_conv) []
    & info [ "endpoints" ] ~docv:"HOST:PORT,..."
        ~doc:
          "The replication topology's client endpoints. The client probes each one's ROLE, \
           dials the writable primary on the highest epoch, and — when an operation is refused \
           READONLY or a node dies mid-failover — re-discovers and re-runs (with --retries), \
           riding out a promotion instead of failing. Overrides --host/--port when discovery \
           succeeds.")

let role =
  Arg.(
    value & flag
    & info [ "role" ]
        ~doc:
          "Print the node's ROLE payload (role, epoch, journal position, repl_port, priority, \
           peers, and a standby's fatal fencing status) — failover discovery for scripts.")

let consults =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Program files to consult remotely.")

let fast_loads =
  Arg.(
    value & opt_all file []
    & info [ "fast-load" ] ~docv:"FILE" ~doc:"Fact files for the formatted-read bulk loader.")

let goals =
  Arg.(value & opt_all string [] & info [ "e"; "eval" ] ~docv:"GOAL" ~doc:"Goal to evaluate.")

let asserts =
  Arg.(value & opt_all string [] & info [ "assert" ] ~docv:"CLAUSE" ~doc:"Clause to assert.")

let limit =
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc:"Stop after N answers.")

let timeout_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-query wall-clock deadline.")

let max_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N" ~doc:"Per-query resolution-step budget.")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print the session's engine statistics.")

let abolish =
  Arg.(value & flag & info [ "abolish" ] ~doc:"Abolish the session's tables after the goals.")

let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Ping the server first.")

let sync =
  Arg.(
    value & flag
    & info [ "sync" ] ~doc:"Ask a durable server to fsync its journal after the goals.")

let promote =
  Arg.(
    value & flag
    & info [ "promote" ]
        ~doc:
          "Promote a replication standby to a writable primary (failover); runs before any \
           other operation so the same invocation can then mutate.")

let follow_primary =
  Arg.(
    value & flag
    & info [ "follow-primary" ]
        ~doc:
          "Treat READONLY refusals of idempotent requests as retryable (with --retries): a \
           standby about to be promoted, or a degraded primary being repaired, clears them.")

let retries =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry the connect (ECONNREFUSED) and idempotent requests (OVERLOADED) up to $(docv) \
           times with exponential backoff and jitter.")

let backoff_ms =
  Arg.(
    value & opt int 100
    & info [ "backoff-ms" ] ~docv:"MS" ~doc:"Base backoff before the first retry.")

let max_elapsed_ms =
  Arg.(
    value & opt int 0
    & info [ "max-elapsed-ms" ] ~docv:"MS"
        ~doc:
          "Total retry budget across attempts, measured on the monotonic clock; once spent, the \
           next retryable failure is final (0 = no cap).")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the server's Prometheus text exposition (request histograms, table-space \
           bytes, journal durability), validating its shape first.")

let cmd =
  let doc = "client for the XSB-repro query server" in
  Cmd.v
    (Cmd.info "xsb_client" ~doc)
    Term.(
      const main $ host $ port $ endpoints $ consults $ fast_loads $ goals $ asserts $ limit
      $ timeout_ms $ max_steps $ stats $ abolish $ ping $ sync $ promote $ role $ follow_primary
      $ metrics $ retries $ backoff_ms $ max_elapsed_ms)

let () = exit (Cmd.eval' cmd)
