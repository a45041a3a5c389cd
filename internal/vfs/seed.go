package vfs

import "fmt"

// seed populates a fresh FS with the baseline Linux system image the
// honeypot presents: the directory skeleton, passwd/shadow, /proc
// information files (the paper's Table 3 shows `cat /proc/cpuinfo` among
// the most popular intruder commands), and a handful of busybox-style
// binaries. Seeding does not generate file events.
func seed(fs *FS) {
	dirs := []string{
		"/bin", "/boot", "/dev", "/etc", "/etc/init.d", "/home",
		"/lib", "/mnt", "/opt", "/proc", "/root", "/sbin", "/sys",
		"/tmp", "/usr", "/usr/bin", "/usr/sbin", "/usr/lib",
		"/var", "/var/log", "/var/run", "/var/tmp", "/var/www",
	}
	for _, d := range dirs {
		if err := fs.MkdirAll("/", d, 0o755); err != nil {
			panic(fmt.Sprintf("vfs seed: %v", err))
		}
	}
	files := map[string]string{
		"/etc/passwd": "root:x:0:0:root:/root:/bin/bash\n" +
			"daemon:x:1:1:daemon:/usr/sbin:/usr/sbin/nologin\n" +
			"bin:x:2:2:bin:/bin:/usr/sbin/nologin\n" +
			"sys:x:3:3:sys:/dev:/usr/sbin/nologin\n" +
			"www-data:x:33:33:www-data:/var/www:/usr/sbin/nologin\n" +
			"sshd:x:105:65534::/run/sshd:/usr/sbin/nologin\n",
		"/etc/shadow": "root:$6$aQ7BeIvq$XoQ3Rq:18723:0:99999:7:::\n" +
			"daemon:*:18375:0:99999:7:::\n",
		"/etc/hostname": "svr04\n",
		"/etc/hosts":    "127.0.0.1\tlocalhost\n127.0.1.1\tsvr04\n",
		"/etc/issue":    "Debian GNU/Linux 10 \\n \\l\n",
		"/etc/os-release": "PRETTY_NAME=\"Debian GNU/Linux 10 (buster)\"\n" +
			"NAME=\"Debian GNU/Linux\"\nVERSION_ID=\"10\"\nID=debian\n",
		"/etc/resolv.conf": "nameserver 8.8.8.8\nnameserver 8.8.4.4\n",
		"/proc/cpuinfo": "processor\t: 0\nvendor_id\t: GenuineIntel\ncpu family\t: 6\n" +
			"model\t\t: 142\nmodel name\t: Intel(R) Core(TM) i5-8250U CPU @ 1.60GHz\n" +
			"stepping\t: 10\ncpu MHz\t\t: 1600.012\ncache size\t: 6144 KB\n" +
			"physical id\t: 0\nsiblings\t: 1\ncore id\t\t: 0\ncpu cores\t: 1\n" +
			"bogomips\t: 3840.00\n\n",
		"/proc/meminfo": "MemTotal:         1014840 kB\nMemFree:          672544 kB\n" +
			"MemAvailable:     786568 kB\nBuffers:           18096 kB\n" +
			"Cached:           164012 kB\nSwapTotal:              0 kB\nSwapFree:               0 kB\n",
		"/proc/version": "Linux version 4.19.0-18-amd64 (debian-kernel@lists.debian.org) " +
			"(gcc version 8.3.0 (Debian 8.3.0-6)) #1 SMP Debian 4.19.208-1 (2021-09-29)\n",
		"/proc/uptime":      "1432932.48 1402346.43\n",
		"/proc/loadavg":     "0.00 0.01 0.05 1/120 8764\n",
		"/proc/mounts":      "/dev/sda1 / ext4 rw,relatime,errors=remount-ro 0 0\nproc /proc proc rw 0 0\n",
		"/var/log/wtmp":     "",
		"/var/log/lastlog":  "",
		"/var/log/auth.log": "",
		"/root/.bashrc":     "# ~/.bashrc\nexport PS1='\\u@\\h:\\w\\$ '\n",
		"/root/.profile":    "# ~/.profile\n",
	}
	for p, content := range files {
		if err := fs.writeSeed(p, []byte(content), 0o644); err != nil {
			panic(fmt.Sprintf("vfs seed %s: %v", p, err))
		}
	}
	// Fake binaries: content is a short ELF-like marker so hashes differ.
	bins := []string{
		"bash", "sh", "ls", "cat", "echo", "cp", "mv", "rm", "chmod", "chown",
		"ps", "grep", "uname", "free", "w", "who", "id", "wget", "curl",
		"tftp", "ftpget", "scp", "dd", "mkdir", "rmdir", "touch", "head",
		"tail", "which", "nproc", "uptime", "history", "passwd", "awk",
		"crontab", "kill", "top", "df", "du", "mount", "busybox", "lscpu",
	}
	for _, b := range bins {
		marker := []byte("\x7fELF\x02\x01\x01" + b)
		if err := fs.writeSeed("/bin/"+b, marker, 0o755); err != nil {
			panic(fmt.Sprintf("vfs seed bin %s: %v", b, err))
		}
	}
}

// writeSeed writes a baseline-image file; its event is dropped (the
// baseline image is not attacker activity).
func (fs *FS) writeSeed(p string, content []byte, mode uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, err := fs.writeLocked("/", p, content, mode, false)
	return err
}
