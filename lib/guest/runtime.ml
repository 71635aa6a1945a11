open Asm

let prologue u =
  space u "__scratch" 64;
  space u "__buf" 256

let int80 = Asm.int80

let sys_exit u code =
  movl u eax (imm Osim.Abi.sys_exit);
  movl u ebx (imm code);
  int80 u

let sys_fork u =
  movl u eax (imm Osim.Abi.sys_fork);
  int80 u

let sys_execve u ~path ?(argv = imm 0) () =
  movl u ebx path;
  movl u ecx argv;
  movl u eax (imm Osim.Abi.sys_execve);
  int80 u

let sys_sleep u ticks =
  movl u eax (imm Osim.Abi.sys_nanosleep);
  movl u ebx (imm ticks);
  int80 u

let sys_open u ~path ~flags =
  movl u ebx path;
  movl u ecx (imm flags);
  movl u eax (imm Osim.Abi.sys_open);
  int80 u

let sys_creat u ~path =
  movl u ebx path;
  movl u eax (imm Osim.Abi.sys_creat);
  int80 u

let sys_close u ~fd =
  movl u ebx fd;
  movl u eax (imm Osim.Abi.sys_close);
  int80 u

let rw nr u ~fd ~buf ~len =
  movl u ebx fd;
  movl u ecx buf;
  movl u edx len;
  movl u eax (imm nr);
  int80 u

let sys_read = rw Osim.Abi.sys_read
let sys_write = rw Osim.Abi.sys_write

(* socketcall: write the argument words into __scratch, point ecx at it *)
let socketcall u sub args =
  List.iteri (fun i a -> movl u (mlbl ~off:(4 * i) "__scratch") a) args;
  movl u ebx (imm sub);
  movl u ecx (lbl "__scratch");
  movl u eax (imm Osim.Abi.sys_socketcall);
  int80 u

let sys_socket u = socketcall u Osim.Abi.sock_socket [ imm 2; imm 1; imm 0 ]

let sys_connect u ~fd ~addr =
  socketcall u Osim.Abi.sock_connect
    [ fd; addr; imm Osim.Abi.sockaddr_size ]

let sys_bind u ~fd ~addr =
  socketcall u Osim.Abi.sock_bind [ fd; addr; imm Osim.Abi.sockaddr_size ]

let sys_listen u ~fd = socketcall u Osim.Abi.sock_listen [ fd; imm 8 ]

let sys_accept u ~fd = socketcall u Osim.Abi.sock_accept [ fd; imm 0; imm 0 ]

let sys_send u ~fd ~buf ~len =
  socketcall u Osim.Abi.sock_send [ fd; buf; len; imm 0 ]

let sys_recv u ~fd ~buf ~len =
  socketcall u Osim.Abi.sock_recv [ fd; buf; len; imm 0 ]

let static_sockaddr u name ~ip ~port =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int ip);
  Bytes.set_uint16_le b 4 (port land 0xFFFF);
  Bytes.set_uint16_le b 6 0;
  bytes_ u name (Bytes.to_string b)

let build_sockaddr ?(at = 32) u ~ip_src ~port =
  (* sockaddr assembled at __scratch+at: 4 IP bytes then the port word *)
  movl u ebx ip_src;  (* ebx := pointer to the 4 ip bytes *)
  movl u ebx (ind EBX);  (* ebx := the ip word itself *)
  movl u (mlbl ~off:at "__scratch") ebx;
  movl u (mlbl ~off:(at + 4) "__scratch") port;
  movl u eax (lbl "__scratch");
  addl u eax (imm at)

let save_argv u n label =
  movl u ecx (ind_off ESP (4 * (n + 1)));
  movl u (mlbl label) ecx

let save_env u n dst =
  (* the env vector follows argv's NULL terminator on the initial stack:
     [argc][argv...][0][env...][0] *)
  let scan = "__se_scan_" ^ dst in
  movl u ecx esp;
  addl u ecx (imm 4);  (* skip argc *)
  label u scan;
  movl u ebx (ind ECX);
  addl u ecx (imm 4);
  testl u ebx ebx;
  jnz u scan;
  movl u ecx (ind_off ECX (4 * n));
  movl u (mlbl dst) ecx

let parse_int u ~id ~src ~dst =
  let loop = "__pi_loop_" ^ id and done_ = "__pi_done_" ^ id in
  xorl u (Reg dst) (Reg dst);
  label u loop;
  movb u ebx (ind src);
  testl u ebx ebx;
  jz u done_;
  imull u (Reg dst) (imm 10);
  subl u ebx (imm 48);
  addl u (Reg dst) ebx;
  incl u (Reg src);
  jmp u loop;
  label u done_

let strlen u ~id ~src ~dst =
  let loop = "__sl_loop_" ^ id and done_ = "__sl_done_" ^ id in
  xorl u (Reg dst) (Reg dst);
  label u loop;
  movb u ebx (idx src dst 1 0);
  testl u ebx ebx;
  jz u done_;
  incl u (Reg dst);
  jmp u loop;
  label u done_

let print u name s =
  asciz u name s;
  sys_write u ~fd:(imm 1) ~buf:(lbl name) ~len:(imm (String.length s))
