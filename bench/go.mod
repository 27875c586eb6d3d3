module pagefeedback/bench

go 1.22

require pagefeedback v0.0.0

replace pagefeedback => ../
