(* Server child processes: the system under test runs as the real
   [xsb_serverd] binary, one process per node, apart from the load
   generator. Every process started here is registered, and [reap_all]
   (run at exit and on failure) kills and waits for whatever is left. *)

type t = {
  pid : int;
  out : in_channel;  (** the server's stdout, for its startup lines *)
  port : int;
  repl_port : int option;
}

let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let server_exe = ref "xsb_serverd.exe"

exception Startup of string

(* read stdout lines until "listening on N" (and, when asked, the
   replication port); a line-buffered pipe, so this blocks only until
   the server is ready or has died *)
let rec await_ports ic ~want_repl port repl =
  match (port, repl) with
  | Some p, Some _ when want_repl -> (p, repl)
  | Some p, _ when not want_repl -> (p, None)
  | _ -> (
      match input_line ic with
      | exception End_of_file -> raise (Startup "server exited before listening")
      | line -> (
          let num prefix =
            let n = String.length prefix in
            if String.length line > n && String.sub line 0 n = prefix then
              int_of_string_opt (String.trim (String.sub line n (String.length line - n)))
            else None
          in
          match (num "listening on ", num "replication listening on ") with
          | Some p, _ -> await_ports ic ~want_repl (Some p) repl
          | _, Some r -> await_ports ic ~want_repl port (Some r)
          | None, None -> await_ports ic ~want_repl port repl))

let spawn ?(want_repl = false) args =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = Array.of_list (!server_exe :: "--port" :: "0" :: args) in
  let pid = Unix.create_process !server_exe argv devnull w devnull in
  Unix.close w;
  Unix.close devnull;
  Hashtbl.replace live pid ();
  let ic = Unix.in_channel_of_descr r in
  let port, repl_port = await_ports ic ~want_repl None None in
  { pid; out = ic; port; repl_port }

(* signal a process and wait for it; a process already reaped is left
   alone, so its pid cannot be mistaken for a newer process *)
let signal_and_wait p signal =
  if Hashtbl.mem live p.pid then begin
    (try Unix.kill p.pid signal with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    Hashtbl.remove live p.pid;
    close_in_noerr p.out
  end

(* graceful: SIGTERM drains in-flight requests and closes the journal *)
let stop p = signal_and_wait p Sys.sigterm
let kill9 p = signal_and_wait p Sys.sigkill

let reap_all () =
  Hashtbl.iter (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) live;
  Hashtbl.iter (fun pid () -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) live;
  Hashtbl.reset live

(* VmHWM: the peak resident set of a live process, in MiB *)
let peak_rss_mb p =
  let ic = open_in (Printf.sprintf "/proc/%d/status" p.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path
