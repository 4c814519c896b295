/* Persistent-pollset stubs for D2_net.Pollset.
 *
 * One registration table lives in the kernel (epoll, Linux) or in
 * this translation unit (poll(2), other POSIX), so the per-wakeup
 * cost is proportional to the number of *ready* descriptors, not the
 * number of registered ones — unlike select(), which rebuilds and
 * scans every fd set on every call.
 *
 * The OCaml side passes file descriptors as ints (Unix.file_descr is
 * an int on Unix) and receives readiness as (fd, event-mask) pairs
 * written into caller-owned int arrays: bit 0 = readable, bit 1 =
 * writable, bit 2 = error/hangup.
 */

#include <errno.h>
#include <stdlib.h>
#include <string.h>

#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#define D2_EV_READ 1
#define D2_EV_WRITE 2
#define D2_EV_ERROR 4

#if defined(__linux__)

/* ------------------------------------------------------------------ */
/* epoll backend                                                      */
/* ------------------------------------------------------------------ */

#include <sys/epoll.h>
#include <unistd.h>

CAMLprim value d2_pollset_create(value unit)
{
  (void)unit;
  int fd = epoll_create1(0);
  if (fd < 0) caml_failwith("Pollset.create: epoll_create1 failed");
  return Val_int(fd);
}

CAMLprim value d2_pollset_close(value vps)
{
  close(Int_val(vps));
  return Val_unit;
}

/* set ps fd read write: add/modify/remove interest.  Both flags false
 * removes the registration (ENOENT ignored — close() already
 * unregisters a descriptor from every epoll set watching it). */
CAMLprim value d2_pollset_set(value vps, value vfd, value vread, value vwrite)
{
  int eps = Int_val(vps);
  int fd = Int_val(vfd);
  struct epoll_event ev;
  memset(&ev, 0, sizeof ev);
  ev.data.fd = fd;
  if (Bool_val(vread)) ev.events |= EPOLLIN;
  if (Bool_val(vwrite)) ev.events |= EPOLLOUT;
  if (ev.events == 0) {
    if (epoll_ctl(eps, EPOLL_CTL_DEL, fd, &ev) < 0 && errno != ENOENT
        && errno != EBADF)
      caml_failwith("Pollset.set: epoll_ctl DEL failed");
  } else if (epoll_ctl(eps, EPOLL_CTL_MOD, fd, &ev) < 0) {
    if (errno != ENOENT
        || epoll_ctl(eps, EPOLL_CTL_ADD, fd, &ev) < 0)
      caml_failwith("Pollset.set: epoll_ctl failed");
  }
  return Val_unit;
}

#define D2_MAX_EVENTS 512

/* wait ps timeout_ms fds events: blocks (runtime released) for up to
 * timeout_ms, fills the two arrays, returns the ready count (capped
 * by the shorter array). */
CAMLprim value d2_pollset_wait(value vps, value vtimeout, value vfds,
                               value vevents)
{
  CAMLparam4(vps, vtimeout, vfds, vevents);
  struct epoll_event evs[D2_MAX_EVENTS];
  int eps = Int_val(vps);
  int timeout = Int_val(vtimeout);
  long cap = Wosize_val(vfds) < Wosize_val(vevents) ? Wosize_val(vfds)
                                                    : Wosize_val(vevents);
  int want = cap < D2_MAX_EVENTS ? (int)cap : D2_MAX_EVENTS;
  int n;
  caml_enter_blocking_section();
  n = epoll_wait(eps, evs, want > 0 ? want : 1, timeout);
  caml_leave_blocking_section();
  if (n < 0) {
    if (errno == EINTR) CAMLreturn(Val_int(0));
    caml_failwith("Pollset.wait: epoll_wait failed");
  }
  for (int i = 0; i < n && i < cap; i++) {
    int mask = 0;
    if (evs[i].events & (EPOLLIN | EPOLLRDHUP)) mask |= D2_EV_READ;
    if (evs[i].events & EPOLLOUT) mask |= D2_EV_WRITE;
    if (evs[i].events & (EPOLLERR | EPOLLHUP)) mask |= D2_EV_ERROR;
    Field(vfds, i) = Val_int(evs[i].data.fd);
    Field(vevents, i) = Val_int(mask);
  }
  CAMLreturn(Val_int(n < cap ? n : (int)cap));
}

#else /* !__linux__ */

/* ------------------------------------------------------------------ */
/* poll(2) backend: the registration table lives here                 */
/* ------------------------------------------------------------------ */

#include <poll.h>

typedef struct {
  struct pollfd *fds;
  int count;
  int cap;
} d2_pollset;

static d2_pollset *sets[64];

CAMLprim value d2_pollset_create(value unit)
{
  (void)unit;
  for (int i = 0; i < 64; i++) {
    if (sets[i] == NULL) {
      d2_pollset *ps = malloc(sizeof *ps);
      if (!ps) caml_failwith("Pollset.create: out of memory");
      ps->cap = 64;
      ps->count = 0;
      ps->fds = malloc(ps->cap * sizeof *ps->fds);
      if (!ps->fds) {
        free(ps);
        caml_failwith("Pollset.create: out of memory");
      }
      sets[i] = ps;
      return Val_int(i);
    }
  }
  caml_failwith("Pollset.create: too many pollsets");
}

CAMLprim value d2_pollset_close(value vps)
{
  int i = Int_val(vps);
  if (i >= 0 && i < 64 && sets[i]) {
    free(sets[i]->fds);
    free(sets[i]);
    sets[i] = NULL;
  }
  return Val_unit;
}

CAMLprim value d2_pollset_set(value vps, value vfd, value vread, value vwrite)
{
  d2_pollset *ps = sets[Int_val(vps)];
  int fd = Int_val(vfd);
  short events = 0;
  if (!ps) caml_failwith("Pollset.set: closed pollset");
  if (Bool_val(vread)) events |= POLLIN;
  if (Bool_val(vwrite)) events |= POLLOUT;
  for (int i = 0; i < ps->count; i++) {
    if (ps->fds[i].fd == fd) {
      if (events == 0) {
        ps->fds[i] = ps->fds[ps->count - 1];
        ps->count--;
      } else {
        ps->fds[i].events = events;
      }
      return Val_unit;
    }
  }
  if (events == 0) return Val_unit;
  if (ps->count == ps->cap) {
    ps->cap *= 2;
    ps->fds = realloc(ps->fds, ps->cap * sizeof *ps->fds);
    if (!ps->fds) caml_failwith("Pollset.set: out of memory");
  }
  ps->fds[ps->count].fd = fd;
  ps->fds[ps->count].events = events;
  ps->fds[ps->count].revents = 0;
  ps->count++;
  return Val_unit;
}

CAMLprim value d2_pollset_wait(value vps, value vtimeout, value vfds,
                               value vevents)
{
  CAMLparam4(vps, vtimeout, vfds, vevents);
  d2_pollset *ps = sets[Int_val(vps)];
  int timeout = Int_val(vtimeout);
  long cap = Wosize_val(vfds) < Wosize_val(vevents) ? Wosize_val(vfds)
                                                    : Wosize_val(vevents);
  int n, filled = 0;
  if (!ps) caml_failwith("Pollset.wait: closed pollset");
  caml_enter_blocking_section();
  n = poll(ps->fds, ps->count, timeout);
  caml_leave_blocking_section();
  if (n < 0) {
    if (errno == EINTR) CAMLreturn(Val_int(0));
    caml_failwith("Pollset.wait: poll failed");
  }
  for (int i = 0; i < ps->count && filled < cap && filled < n; i++) {
    short re = ps->fds[i].revents;
    if (re) {
      int mask = 0;
      if (re & POLLIN) mask |= D2_EV_READ;
      if (re & POLLOUT) mask |= D2_EV_WRITE;
      if (re & (POLLERR | POLLHUP | POLLNVAL)) mask |= D2_EV_ERROR;
      Field(vfds, filled) = Val_int(ps->fds[i].fd);
      Field(vevents, filled) = Val_int(mask);
      filled++;
    }
  }
  CAMLreturn(Val_int(filled));
}

#endif

/* Direct read/write on NON-BLOCKING descriptors, straight from/into
 * OCaml bytes.  The stdlib's Unix.read/Unix.write copy through an
 * intermediate C buffer so they can release the runtime around a
 * potentially blocking call; on a non-blocking socket the call never
 * blocks, so skipping both the runtime release and the copy is safe
 * (the GC cannot move the buffer while no allocation happens) and
 * saves one full memcpy of every byte each way.
 *
 * Return: >= 0 bytes transferred; -1 hard error; -2 EAGAIN/EINTR
 * (retry at next readiness).  Write uses send(MSG_NOSIGNAL) where
 * available so a dead peer yields EPIPE, not SIGPIPE. */

#include <unistd.h>
#include <sys/socket.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

CAMLprim value d2_fd_read(value vfd, value vbuf, value voff, value vlen)
{
  ssize_t n = read(Int_val(vfd), Bytes_val(vbuf) + Long_val(voff),
                   Long_val(vlen));
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return Val_long(-2);
    return Val_long(-1);
  }
  return Val_long(n);
}

CAMLprim value d2_fd_write(value vfd, value vbuf, value voff, value vlen)
{
  ssize_t n = send(Int_val(vfd), Bytes_val(vbuf) + Long_val(voff),
                   Long_val(vlen), MSG_NOSIGNAL);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return Val_long(-2);
    return Val_long(-1);
  }
  return Val_long(n);
}
