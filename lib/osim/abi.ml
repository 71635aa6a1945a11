let sys_exit = 1
let sys_fork = 2
let sys_read = 3
let sys_write = 4
let sys_open = 5
let sys_close = 6
let sys_creat = 8
let sys_execve = 11
let sys_time = 13
let sys_getpid = 20
let sys_dup = 41
let sys_brk = 45
let sys_socketcall = 102
let sys_clone = 120
let sys_nanosleep = 162

let syscall_name n =
  if n = sys_exit then "SYS_exit"
  else if n = sys_fork then "SYS_fork"
  else if n = sys_read then "SYS_read"
  else if n = sys_write then "SYS_write"
  else if n = sys_open then "SYS_open"
  else if n = sys_close then "SYS_close"
  else if n = sys_creat then "SYS_creat"
  else if n = sys_execve then "SYS_execve"
  else if n = sys_time then "SYS_time"
  else if n = sys_getpid then "SYS_getpid"
  else if n = sys_dup then "SYS_dup"
  else if n = sys_brk then "SYS_brk"
  else if n = sys_socketcall then "SYS_socketcall"
  else if n = sys_clone then "SYS_clone"
  else if n = sys_nanosleep then "SYS_nanosleep"
  else Fmt.str "SYS_%d" n

let sock_socket = 1
let sock_bind = 2
let sock_connect = 3
let sock_listen = 4
let sock_accept = 5
let sock_send = 9
let sock_recv = 10

let enoent = 2
let eio = 5
let ebadf = 9
let eagain = 11
let enomem = 12
let eacces = 13
let enoexec = 8
let einval = 22
let emfile = 24
let econnreset = 104
let econnrefused = 111

let errno_name e =
  if e = enoent then "ENOENT"
  else if e = eio then "EIO"
  else if e = ebadf then "EBADF"
  else if e = eagain then "EAGAIN"
  else if e = enomem then "ENOMEM"
  else if e = eacces then "EACCES"
  else if e = enoexec then "ENOEXEC"
  else if e = einval then "EINVAL"
  else if e = emfile then "EMFILE"
  else if e = econnreset then "ECONNRESET"
  else if e = econnrefused then "ECONNREFUSED"
  else Fmt.str "E%d" e

let o_rdonly = 0
let o_wronly = 1
let o_creat = 64
let o_trunc = 512
let o_append = 1024

let sockaddr_size = 8

let read_sockaddr read_word addr =
  let w0 = read_word addr in
  let w1 = read_word (addr + 4) in
  w0, w1 land 0xFFFF

let write_sockaddr write_byte addr ~ip ~port =
  write_byte addr (ip land 0xFF);
  write_byte (addr + 1) ((ip lsr 8) land 0xFF);
  write_byte (addr + 2) ((ip lsr 16) land 0xFF);
  write_byte (addr + 3) ((ip lsr 24) land 0xFF);
  write_byte (addr + 4) (port land 0xFF);
  write_byte (addr + 5) ((port lsr 8) land 0xFF);
  write_byte (addr + 6) 0;
  write_byte (addr + 7) 0
